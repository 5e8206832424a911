package api

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"dspaddr/internal/core"
	"dspaddr/internal/workload"
)

// countingWriter is a ResponseWriter that keeps only the body length,
// so the benchmark times the encode and not a growing buffer.
type countingWriter struct {
	h http.Header
	n int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(int)             {}
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// coldBatch draws a 16-job batch shaped like perfbench's cold-solve
// op: 12 patterns of N 32–64 under the intra-iteration objective and
// 4 wrap-aware patterns of N 8–16, K 2–4, M 1–2.
func coldBatch() BatchRequest {
	rng := rand.New(rand.NewSource(16))
	req := BatchRequest{Jobs: make([]Job, 16)}
	for i := range req.Jobs {
		wrap := i >= 12
		n := 32 + rng.Intn(33)
		if wrap {
			n = 8 + rng.Intn(9)
		}
		p := workload.BenchPattern(rng, n)
		req.Jobs[i] = Job{
			Pattern: &Pattern{Array: p.Array, Stride: p.Stride, Offsets: p.Offsets},
			AGU:     AGU{Registers: 2 + rng.Intn(3), ModifyRange: 1 + rng.Intn(2)},
			Wrap:    wrap,
		}
	}
	return req
}

// coldBatchResponse solves coldBatch's jobs into their answer. The
// allocs carry the report only when report is set.
func coldBatchResponse(b *testing.B, report bool) BatchResponse {
	jobs := coldBatch().Jobs
	resp := BatchResponse{Results: make([]JobResponse, len(jobs)), ElapsedMicros: 2500}
	for i, job := range jobs {
		req := job.EngineRequest()
		res, err := core.Allocate(req.Pattern, core.Config{AGU: req.AGU, InterIteration: req.InterIteration})
		if err != nil {
			b.Fatal(err)
		}
		a := Alloc{
			Array:            res.Pattern.Array,
			Offsets:          res.Pattern.Offsets,
			Cost:             res.Cost,
			VirtualRegisters: res.VirtualRegisters,
			RegistersUsed:    res.Assignment.Registers(),
			Merged:           res.Merged,
			CoverExact:       res.CoverExact,
			Registers:        make([][]int, len(res.Assignment.Paths)),
			ElapsedMicros:    150,
		}
		for j, p := range res.Assignment.Paths {
			a.Registers[j] = []int(p)
		}
		if report {
			a.Report = res.Report()
		}
		resp.Results[i] = JobResponse{Results: []Alloc{a}}
	}
	return resp
}

// BenchmarkDecodeBatch times the strict decode of coldBatch's body,
// as a client encodes it; B/body is the body size.
func BenchmarkDecodeBatch(b *testing.B) {
	body, err := json.Marshal(coldBatch())
	if err != nil {
		b.Fatal(err)
	}
	if !decodePlain(body, new(BatchRequest)) {
		b.Fatal("the one-pass reader declines the cold batch body")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req BatchRequest
		if err := decode(body, &req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(body)), "B/body")
}

// BenchmarkWriteJSONBatch times WriteJSON on a cold 16-job batch
// answer, without and with the opt-in report; B/resp is the body size.
func BenchmarkWriteJSONBatch(b *testing.B) {
	for _, tc := range []struct {
		name   string
		report bool
	}{{"report=off", false}, {"report=on", true}} {
		b.Run(tc.name, func(b *testing.B) {
			resp := coldBatchResponse(b, tc.report)
			w := &countingWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.n = 0
				WriteJSON(w, http.StatusOK, resp)
			}
			b.ReportMetric(float64(w.n), "B/resp")
		})
	}
}
