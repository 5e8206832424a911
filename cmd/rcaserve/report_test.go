package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
)

// TestReportOptIn: every route that answers allocations leaves the
// text report out by default and carries a non-empty one for each
// alloc of a job that set "report": true. The batch forms mix a
// pattern job with a loop job, the two ways runJob renders allocs.
func TestReportOptIn(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 2})
	pattern := func(flag string) string {
		return `{"pattern":{"offsets":[1,0,2,-1,1,0,-2]},"agu":{"registers":1,"modifyRange":1}` + flag + `}`
	}
	loop := func(flag string) string {
		return `{"loop":"for (i = 0; i < 8; i++) { y[i] = x[i] + x[i+1]; }","agu":{"registers":2,"modifyRange":1}` + flag + `}`
	}
	// post sends body to path and returns every answer body: the
	// response itself, or for /v1/jobs each job's finished status.
	post := func(path, body string) [][]byte {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var raw bytes.Buffer
		if _, err := raw.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if path != "/v1/jobs" {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, resp.StatusCode, raw.Bytes())
			}
			return [][]byte{raw.Bytes()}
		}
		var sub api.SubmitResponse
		if err := json.Unmarshal(raw.Bytes(), &sub); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d, body %s (err %v)", resp.StatusCode, raw.Bytes(), err)
		}
		var out [][]byte
		for _, id := range sub.IDs {
			if st := waitJobDone(t, ts.URL, id); st.Error != "" {
				t.Fatalf("job %s failed: %s", id, st.Error)
			}
			out = append(out, []byte(getBody(t, ts.URL+"/v1/jobs/"+id)))
		}
		return out
	}
	// allocs decodes the allocs of one answer body.
	allocs := func(path string, raw []byte) []api.Alloc {
		var jobs []api.JobResponse
		switch path {
		case "/v1/allocate":
			var r api.JobResponse
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatal(err)
			}
			jobs = []api.JobResponse{r}
		case "/v1/batch":
			var r api.BatchResponse
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatal(err)
			}
			jobs = r.Results
		default:
			var st api.JobStatus
			if err := json.Unmarshal(raw, &st); err != nil || st.Result == nil {
				t.Fatalf("job status %s (err %v)", raw, err)
			}
			jobs = []api.JobResponse{*st.Result}
		}
		var out []api.Alloc
		for _, j := range jobs {
			out = append(out, j.Results...)
		}
		return out
	}
	for _, tc := range []struct {
		name, path string
		body       func(flag string) string
		allocs     int
	}{
		{"allocate", "/v1/allocate", pattern, 1},
		{"batch", "/v1/batch", func(f string) string { return `{"jobs":[` + pattern(f) + `,` + loop(f) + `]}` }, 3},
		{"jobs inline", "/v1/jobs", pattern, 1},
		{"jobs batch form", "/v1/jobs", func(f string) string { return `{"jobs":[` + pattern(f) + `,` + loop(f) + `]}` }, 3},
	} {
		for _, report := range []bool{false, true} {
			name := fmt.Sprintf("%s report=%v", tc.name, report)
			flag := ""
			if report {
				flag = `,"report":true`
			}
			var got []api.Alloc
			for _, raw := range post(tc.path, tc.body(flag)) {
				if !report && bytes.Contains(raw, []byte(`"report"`)) {
					t.Errorf("%s: body carries a report key: %s", name, raw)
				}
				got = append(got, allocs(tc.path, raw)...)
			}
			if len(got) != tc.allocs {
				t.Fatalf("%s: %d allocs, want %d", name, len(got), tc.allocs)
			}
			for i, a := range got {
				if report && a.Report == "" {
					t.Errorf("%s: alloc %d has no report", name, i)
				}
			}
		}
	}
}
