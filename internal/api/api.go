// Package api owns the /v1 wire format: the request and response
// bodies rcaserve serves, the rcagate gateway decodes to validate and
// route, and the soak driver and benchmarks send. It also owns the
// small HTTP helpers, the build version and the process logger both
// servers share, and the WAL encoding of async job payloads and results, which is the
// same wire JSON.
//
// Node and gateway decode request bodies with the same types and the
// same strict decoder, so they accept exactly the same bodies.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"dspaddr/internal/engine"
	"dspaddr/internal/jobs"
	"dspaddr/internal/model"
	"dspaddr/internal/wal"
)

// MaxBodyBytes caps request bodies; allocation requests are tiny, so
// anything bigger is abuse.
const MaxBodyBytes = 1 << 20

// List limits bound GET /v1/jobs pages.
const (
	DefaultListLimit = 100
	MaxListLimit     = 1000
)

// AGU is the wire form of model.AGUSpec.
type AGU struct {
	// Registers is K, the number of AGU address registers.
	Registers int `json:"registers"`
	// ModifyRange is M, the free post-modify range.
	ModifyRange int `json:"modifyRange"`
}

// Pattern is the wire form of model.Pattern.
type Pattern struct {
	// Array names the accessed array (informational).
	Array string `json:"array,omitempty"`
	// Stride is the loop increment per iteration; 0 means 1.
	Stride int `json:"stride,omitempty"`
	// Offsets is the access offset sequence in program order.
	Offsets []int `json:"offsets"`
}

// Job is one allocation job of an /v1/allocate, /v1/batch or /v1/jobs
// request. Exactly one of Pattern and Loop must be set: Pattern names
// the access pattern directly, Loop is mini-C loop source parsed by
// the frontend. A loop is allocated as a whole — the K registers are
// distributed over its arrays by marginal cost, exactly as
// dspaddr.AllocateLoop does — and yields one result per array.
type Job struct {
	Pattern  *Pattern       `json:"pattern,omitempty"`
	Loop     string         `json:"loop,omitempty"`
	Bindings map[string]int `json:"bindings,omitempty"`
	AGU      AGU            `json:"agu"`
	// Wrap includes inter-iteration updates in the objective.
	Wrap bool `json:"wrap,omitempty"`
	// Strategy selects the phase-2 merge heuristic
	// (greedy|naive|smallest|optimal); empty means greedy.
	Strategy string `json:"strategy,omitempty"`
	// Report asks for each result's human-readable allocation report.
	// It is opt-in: the text repeats the rest of the result and more
	// than doubles the response.
	Report bool `json:"report,omitempty"`
}

// Job shape errors, reported per job.
var (
	errPatternAndLoop  = errors.New("sets both pattern and loop; pick one")
	errNoPatternOrLoop = errors.New("needs a pattern or a loop")
)

// Check reports a job that sets both or neither of Pattern and Loop,
// or whose pattern has more than model.MaxAccesses accesses.
func (j *Job) Check() error {
	switch {
	case j.Pattern != nil && j.Loop != "":
		return errPatternAndLoop
	case j.Pattern == nil && j.Loop == "":
		return errNoPatternOrLoop
	case j.Pattern != nil && len(j.Pattern.Offsets) > model.MaxAccesses:
		return fmt.Errorf("pattern has %d accesses, more than the %d allowed", len(j.Pattern.Offsets), model.MaxAccesses)
	}
	return nil
}

// EngineRequest maps the job onto the engine's request. The node runs
// pattern jobs with it and the gateway routes them by its
// engine.RouteKey, so both key the same request. Stride 0 means 1. A
// loop job yields its AGU, objective and strategy with a zero Pattern.
func (j *Job) EngineRequest() engine.Request {
	req := engine.Request{
		AGU:            model.AGUSpec{Registers: j.AGU.Registers, ModifyRange: j.AGU.ModifyRange},
		InterIteration: j.Wrap,
		Strategy:       j.Strategy,
	}
	if p := j.Pattern; p != nil {
		stride := p.Stride
		if stride == 0 {
			stride = 1
		}
		req.Pattern = model.Pattern{Array: p.Array, Stride: stride, Offsets: p.Offsets}
	}
	return req
}

// Alloc is the wire form of one array's allocation result.
type Alloc struct {
	Array            string  `json:"array"`
	Offsets          []int   `json:"offsets"`
	Cost             int     `json:"cost"`
	VirtualRegisters int     `json:"virtualRegisters"`
	RegistersUsed    int     `json:"registersUsed"`
	Merged           bool    `json:"merged"`
	CoverExact       bool    `json:"coverExact"`
	Registers        [][]int `json:"registers"`
	// GlobalRegisters maps this array's register indices to loop-wide
	// physical registers (loop jobs only).
	GlobalRegisters []int `json:"globalRegisters,omitempty"`
	CacheHit        bool  `json:"cacheHit"`
	ElapsedMicros   int64 `json:"elapsedMicros"`
	// Report is the multi-line allocation report, present only when
	// the job set Report.
	Report string `json:"report,omitempty"`
}

// JobResponse is the outcome of one job: per-array results, or an
// error string.
type JobResponse struct {
	Error   string  `json:"error,omitempty"`
	Results []Alloc `json:"results,omitempty"`
}

// BatchRequest is the /v1/batch request body.
type BatchRequest struct {
	Jobs []Job `json:"jobs"`
}

// BatchResponse is the /v1/batch response body.
type BatchResponse struct {
	Results       []JobResponse `json:"results"`
	ElapsedMicros int64         `json:"elapsedMicros"`
}

// Submit is the POST /v1/jobs request body: either one inline job (the
// Job fields) or a batch under "jobs" — the same payloads the
// synchronous endpoints take — plus a scheduling priority.
type Submit struct {
	Job
	// Jobs is the batch form; mutually exclusive with the inline
	// single-job fields.
	Jobs []Job `json:"jobs,omitempty"`
	// Priority orders dispatch: higher runs first, equal priorities
	// stay FIFO. The whole submission shares one priority.
	Priority int `json:"priority,omitempty"`
}

// Entries returns the submitted jobs: the inline job or the jobs
// array, never both and never none, each with a pattern or a loop.
// Semantic errors (bad loop source, infeasible AGU) are not checked
// here; they surface on the job itself.
func (s *Submit) Entries() ([]Job, error) {
	single := s.Pattern != nil || s.Loop != ""
	if single && len(s.Jobs) > 0 {
		return nil, errors.New("body mixes an inline job with a jobs array; pick one form")
	}
	entries := s.Jobs
	if single {
		entries = []Job{s.Job}
	}
	if len(entries) == 0 {
		return nil, errors.New("submission has no jobs")
	}
	for i := range entries {
		if err := entries[i].Check(); err != nil {
			return nil, fmt.Errorf("job %d %w", i, err)
		}
	}
	return entries, nil
}

// SubmitResponse is the 202 body: one ID per submitted job, in payload
// order; ID duplicates the single entry for one-job submissions.
type SubmitResponse struct {
	ID  string   `json:"id,omitempty"`
	IDs []string `json:"ids"`
}

// JobStatus is the wire form of one job's status snapshot.
type JobStatus struct {
	ID              string       `json:"id"`
	State           string       `json:"state"`
	Priority        int          `json:"priority"`
	SubmittedAt     time.Time    `json:"submittedAt"`
	StartedAt       *time.Time   `json:"startedAt,omitempty"`
	FinishedAt      *time.Time   `json:"finishedAt,omitempty"`
	QueueWaitMicros int64        `json:"queueWaitMicros"`
	RunMicros       int64        `json:"runMicros"`
	Error           string       `json:"error,omitempty"`
	Result          *JobResponse `json:"result,omitempty"`
	// TraceID links the job back to the submitting request (and to
	// its own slow-trace entry under /debug/requests).
	TraceID string `json:"traceId,omitempty"`
}

// ListResponse is the GET /v1/jobs body.
type ListResponse struct {
	Jobs   []JobStatus `json:"jobs"`
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	Limit  int         `json:"limit"`
}

// Error is the uniform error body.
type Error struct {
	Error string `json:"error"`
}

// Stats is a node's /v1/stats body: engine statistics plus async job
// metrics, build version, process uptime and HTTP request count.
type Stats struct {
	engine.Stats
	AsyncJobs jobs.Metrics `json:"asyncJobs"`
	// WAL reports write-ahead log health (segments, appends, fsyncs,
	// compaction, boot replay); absent when durability is off.
	WAL *wal.Stats `json:"wal,omitempty"`
	// NodeID is the cluster identity from -node-id; absent single-node.
	NodeID        string  `json:"nodeId,omitempty"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	HTTPRequests  uint64  `json:"httpRequests"`
	// Sheds counts synchronous requests rejected by adaptive load
	// shedding.
	Sheds uint64 `json:"sheds"`
}

// The WAL stores async job payloads (Job) and results (JobResponse)
// as their compact wire JSON, so a replayed job is byte-for-byte the
// job the client submitted and a recovered result renders exactly as
// it would have before the crash.

// EncodeRecord encodes a payload or result for the WAL.
func EncodeRecord(v any) ([]byte, error) {
	if b, ok := appendFast(nil, v); ok {
		return b, nil
	}
	return json.Marshal(v)
}

// DecodeJobPayload decodes a WAL payload into a Job.
func DecodeJobPayload(b []byte) (any, error) {
	var job Job
	if err := json.Unmarshal(b, &job); err != nil {
		return nil, err
	}
	return job, nil
}

// DecodeJobResult decodes a WAL result into a JobResponse.
func DecodeJobResult(b []byte) (any, error) {
	var resp JobResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}
