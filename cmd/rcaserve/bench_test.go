package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
	"dspaddr/internal/workload"
)

// servedMixBody is the served mix's cold 16-job batch as a /v1/batch
// body, drawn exactly as the root package's servedMixJobs draws it:
// 12 intra-iteration jobs of N 32–64 and 4 wrap-aware jobs of N 8–16,
// K 2–4, M 1–2, offsets from seed 21 with a random distribution and
// offset range 4–11.
func servedMixBody(b *testing.B) string {
	rng := rand.New(rand.NewSource(21))
	var batch api.BatchRequest
	for i := range 16 {
		wrap := i >= 12
		n := 32 + rng.Intn(33)
		if wrap {
			n = 8 + rng.Intn(9)
		}
		pat, err := workload.RandomPattern(rng, workload.RandomParams{
			N: n, OffsetRange: 4 + rng.Intn(8), Dist: workload.Distribution(rng.Intn(3)),
		})
		if err != nil {
			b.Fatal(err)
		}
		batch.Jobs = append(batch.Jobs, api.Job{
			Pattern: &api.Pattern{Array: pat.Array, Stride: pat.Stride, Offsets: pat.Offsets},
			AGU:     api.AGU{Registers: 2 + rng.Intn(3), ModifyRange: 1 + rng.Intn(2)},
			Wrap:    wrap,
		})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	return string(body)
}

// BenchmarkHandleBatchCold sends the served mix's cold batch through
// the real rcaserve handler over httptest loopback, with the result
// cache off so every job is solved: decode, the engine submission,
// the solves and the encode, as perfbench's cold-solve op runs them.
func BenchmarkHandleBatchCold(b *testing.B) {
	body := servedMixBody(b)
	eng := engine.New(engine.Options{CacheSize: -1})
	defer eng.Close()
	s := newServer(eng, serverOptions{version: "bench"})
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	client := ts.Client()
	post := func() *http.Response {
		resp, err := client.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		return resp
	}
	resp := post()
	var out api.BatchResponse
	err := json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Error != "" {
			b.Fatalf("job %d: %s", i, r.Error)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := post()
		_, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}
