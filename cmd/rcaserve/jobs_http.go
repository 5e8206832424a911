// The asynchronous job lifecycle API over internal/jobs.
//
// Where /v1/allocate and /v1/batch hold the connection for the whole
// solve, /v1/jobs accepts the same payloads, answers 202 with job IDs
// immediately and lets clients poll — the shape long-running compile
// campaigns need. Admission is bounded: a submission that does not
// fit the queue is refused with 429 + Retry-After instead of building
// an invisible backlog.
//
//	POST   /v1/jobs       submit one job or a batch (202, 429 when full)
//	GET    /v1/jobs       paginated listing (?state=&offset=&limit=)
//	GET    /v1/jobs/{id}  status + result (404 unknown, 410 evicted)
//	DELETE /v1/jobs/{id}  cancel queued or running work (409 if done)

package main

import (
	"errors"
	"net/http"
	"strconv"
	"strings"

	"dspaddr/internal/api"
	"dspaddr/internal/jobs"
	"dspaddr/internal/obs"
)

// toStatus renders a jobs.Status for the wire.
func toStatus(st jobs.Status) api.JobStatus {
	out := api.JobStatus{
		ID:              st.ID,
		State:           string(st.State),
		Priority:        st.Priority,
		SubmittedAt:     st.SubmittedAt,
		QueueWaitMicros: st.QueueWait.Microseconds(),
		RunMicros:       st.RunTime.Microseconds(),
		TraceID:         st.TraceID,
	}
	if !st.StartedAt.IsZero() {
		t := st.StartedAt
		out.StartedAt = &t
	}
	if !st.FinishedAt.IsZero() {
		t := st.FinishedAt
		out.FinishedAt = &t
	}
	if st.Err != nil {
		out.Error = st.Err.Error()
	}
	if resp, ok := st.Result.(api.JobResponse); ok {
		out.Result = &resp
	}
	return out
}

// handleJobsCollection routes /v1/jobs: POST submits, GET lists.
func (s *server) handleJobsCollection(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		s.handleJobList(w, r)
	default:
		api.WriteError(w, http.StatusMethodNotAllowed, "POST or GET only")
	}
}

// handleJobSubmit serves POST /v1/jobs: validate the payload shape
// up front (cheap), admit atomically, answer 202 with the IDs — or
// 429 with Retry-After when the queue cannot take the submission.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var sub api.Submit
	if err := decodeJSON(r, &sub); err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	entries, err := sub.Entries()
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	payloads := make([]any, len(entries))
	for i, job := range entries {
		payloads[i] = job
	}
	ids, err := s.jobs.SubmitTraced(r.Context(), payloads, sub.Priority, obs.FromContext(r.Context()).ID())
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		// Retry-After tracks the observed drain rate (median run time ×
		// depth / runners) instead of a constant, so clients back off
		// proportionally to the actual backlog.
		w.Header().Set("Retry-After", strconv.Itoa(s.jobs.RetryAfterSeconds()))
		api.WriteError(w, http.StatusTooManyRequests, "job queue full (%d jobs submitted against capacity %d); retry later or shrink the batch",
			len(payloads), s.jobs.QueueCapacity())
		return
	case errors.Is(err, jobs.ErrShuttingDown):
		// A graceful drain (or a restart) is in progress: deterministic
		// 503 with a short Retry-After, so well-behaved clients resubmit
		// against the replacement process instead of erroring out.
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, "server is draining; retry shortly")
		return
	case err != nil:
		api.WriteError(w, http.StatusServiceUnavailable, "submission failed: %v", err)
		return
	}
	resp := api.SubmitResponse{IDs: ids}
	if len(ids) == 1 {
		resp.ID = ids[0]
	}
	writeJSON(reserveEncode(r), w, http.StatusAccepted, resp)
}

// handleJobList serves GET /v1/jobs?state=&offset=&limit=.
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := jobs.State(q.Get("state"))
	if state != "" && !jobs.ValidState(state) {
		api.WriteError(w, http.StatusBadRequest, "unknown state %q", state)
		return
	}
	offset, err := api.QueryInt(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		api.WriteError(w, http.StatusBadRequest, "bad offset")
		return
	}
	limit, err := api.QueryInt(q.Get("limit"), api.DefaultListLimit)
	if err != nil || limit <= 0 {
		api.WriteError(w, http.StatusBadRequest, "bad limit")
		return
	}
	if limit > api.MaxListLimit {
		limit = api.MaxListLimit
	}
	statuses, total := s.jobs.List(state, offset, limit)
	resp := api.ListResponse{
		Jobs:   make([]api.JobStatus, len(statuses)),
		Total:  total,
		Offset: offset,
		Limit:  limit,
	}
	for i, st := range statuses {
		resp.Jobs[i] = toStatus(st)
	}
	writeJSON(reserveEncode(r), w, http.StatusOK, resp)
}

// handleJobByID routes /v1/jobs/{id}: GET polls, DELETE cancels.
func (s *server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		api.WriteError(w, http.StatusNotFound, "no such resource")
		return
	}
	switch r.Method {
	case http.MethodGet:
		st, err := s.jobs.Get(id)
		if err != nil {
			writeJobLookupError(w, id, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, toStatus(st))
	case http.MethodDelete:
		st, err := s.jobs.Cancel(id)
		switch {
		case errors.Is(err, jobs.ErrFinished):
			api.WriteError(w, http.StatusConflict, "job %s already finished (%s)", id, st.State)
		case err != nil:
			writeJobLookupError(w, id, err)
		default:
			api.WriteJSON(w, http.StatusOK, toStatus(st))
		}
	default:
		api.WriteError(w, http.StatusMethodNotAllowed, "GET or DELETE only")
	}
}

// writeJobLookupError maps store lookup failures: unknown IDs are
// 404s, evicted results are 410s (the job existed; its result is
// gone for good).
func writeJobLookupError(w http.ResponseWriter, id string, err error) {
	if errors.Is(err, jobs.ErrEvicted) {
		api.WriteError(w, http.StatusGone, "job %s: result evicted (TTL or capacity)", id)
		return
	}
	api.WriteError(w, http.StatusNotFound, "job %s not found", id)
}
