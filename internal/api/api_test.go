package api

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dspaddr/internal/model"
)

// The golden files under testdata pin the wire: a byte that moves
// here changes what clients parse and what an older WAL replays. The
// *.wal records were written by the build before this package existed
// and must never be regenerated. The response goldens are compact JSON
// without the opt-in "report" unless their name says otherwise.

func golden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenResponses pins the exact response bytes: compact output,
// the field order and names, omitted empties and HTML escaping. Each
// golden decodes strictly into its type and renders back unchanged,
// with a Content-Length that matches the body.
func TestGoldenResponses(t *testing.T) {
	for _, tc := range []struct {
		file   string
		v      any
		status int
	}{
		{"paper_example_response.json", new(JobResponse), http.StatusOK},
		{"paper_example_report_response.json", new(JobResponse), http.StatusOK},
		{"list_response.json", new(ListResponse), http.StatusOK},
		{"submit_response.json", new(SubmitResponse), http.StatusAccepted},
		{"stats.json", new(Stats), http.StatusOK},
	} {
		want := golden(t, tc.file)
		if err := decode(want, tc.v); err != nil {
			t.Fatalf("%s does not decode strictly into %T: %v", tc.file, tc.v, err)
		}
		rec := httptest.NewRecorder()
		WriteJSON(rec, tc.status, reflect.ValueOf(tc.v).Elem().Interface()) // by value, as handlers pass it
		if rec.Code != tc.status || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, Content-Type %q", tc.file, rec.Code, rec.Header().Get("Content-Type"))
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: bytes changed\n got: %s\nwant: %s", tc.file, got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", tc.file, cl, len(want))
		}
	}

	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusUnprocessableEntity, "job %d: %v", 3, errors.New(`needs a "pattern" or a <loop> & more`))
	if want := golden(t, "error.json"); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("error body changed\n got: %s\nwant: %s", rec.Body.Bytes(), want)
	}

	// The paper example itself: K=2, M=1 covers [1,0,2,-1,1,0,-2] at
	// zero cost with the registers (a1,a2,a4,a7) and (a3,a5,a6).
	var resp JobResponse
	if err := decode(golden(t, "paper_example_response.json"), &resp); err != nil {
		t.Fatal(err)
	}
	if a := resp.Results[0]; a.Cost != 0 || a.RegistersUsed != 2 ||
		!reflect.DeepEqual(a.Registers, [][]int{{0, 1, 3, 6}, {2, 4, 5}}) {
		t.Errorf("paper example golden decodes to %+v", a)
	}

	// The report is opt-in: absent from the default answer, and the
	// answer that asked for it is the WAL's result record, one line.
	if bytes.Contains(golden(t, "paper_example_response.json"), []byte(`"report"`)) {
		t.Error(`default paper example response carries a "report" key`)
	}
	withReport := golden(t, "paper_example_report_response.json")
	if want := append(golden(t, "paper_example_result.wal"), '\n'); !bytes.Equal(withReport, want) {
		t.Errorf("report response is not the WAL result record\n got: %s\nwant: %s", withReport, want)
	}
}

// TestGoldenWAL pins the WAL payload and result bytes, and decodes the
// golden records, so a log written by an earlier build still replays.
func TestGoldenWAL(t *testing.T) {
	for _, tc := range []struct {
		file string
		job  Job
	}{
		{"pattern_job.wal", Job{
			Pattern: &Pattern{Array: "x", Stride: 2, Offsets: []int{1, 0, 2, -1, 1, 0, -2}},
			AGU:     AGU{Registers: 2, ModifyRange: 1}, Wrap: true, Strategy: "optimal",
		}},
		{"loop_job.wal", Job{
			Loop:     "for (i = 0; i <= N; i++) { y[i] = x[i] + x[i-1]; }",
			Bindings: map[string]int{"N": 10, "B": -3},
			AGU:      AGU{Registers: 3, ModifyRange: 2},
		}},
	} {
		want := golden(t, tc.file)
		got, err := EncodeRecord(tc.job)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: encoded %s (err %v)\nwant %s", tc.file, got, err, want)
		}
		decoded, err := DecodeJobPayload(want)
		if err != nil || !reflect.DeepEqual(decoded, tc.job) {
			t.Errorf("%s: decoded %+v (err %v), want %+v", tc.file, decoded, err, tc.job)
		}
	}

	want := golden(t, "paper_example_result.wal")
	res, err := DecodeJobResult(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := EncodeRecord(res); err != nil || !bytes.Equal(got, want) {
		t.Errorf("result re-encodes to %s (err %v)\nwant %s", got, err, want)
	}
}

// jobRunes are the characters of randomJob's strings, among them
// every one JSON escapes by default.
const jobRunes = "ax_<>&\"\\\n\té∑ 0"

var jobPieces = strings.Split(jobRunes, "") // one piece per rune

// randomString joins up to 11 pieces drawn from pieces.
func randomString(rng *rand.Rand, pieces []string) string {
	var sb strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// randomJob draws a job over the whole wire shape, including strings
// that JSON escapes.
func randomJob(rng *rand.Rand) Job {
	str := func() string { return randomString(rng, jobPieces) }
	j := Job{
		AGU:      AGU{Registers: rng.Intn(9) - 2, ModifyRange: rng.Intn(9) - 2},
		Wrap:     rng.Intn(2) == 0,
		Strategy: []string{"", "greedy", "naive", "smallest", "optimal", str()}[rng.Intn(6)],
		Report:   rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		p := &Pattern{Array: str(), Stride: rng.Intn(5) - 1, Offsets: make([]int, rng.Intn(40))}
		for i := range p.Offsets {
			p.Offsets[i] = rng.Intn(2001) - 1000
		}
		j.Pattern = p
	}
	if rng.Intn(2) == 0 {
		j.Loop = str()
	}
	if n := rng.Intn(3); n > 0 {
		j.Bindings = map[string]int{}
		for i := 0; i < n; i++ {
			j.Bindings[str()] = rng.Intn(1<<20) - 1<<19
		}
	}
	return j
}

// TestReportFlagDecodes: a payload written before jobs could ask for a
// report (every WAL golden) decodes to Report false, and "report": true
// survives the strict decoder and the WAL codec.
func TestReportFlagDecodes(t *testing.T) {
	for _, name := range []string{"pattern_job.wal", "loop_job.wal"} {
		var job Job
		if err := decode(golden(t, name), &job); err != nil || job.Report {
			t.Errorf("%s: decoded Report %v (err %v), want false", name, job.Report, err)
		}
	}
	body := []byte(`{"pattern":{"offsets":[1,0,2]},"agu":{"registers":1,"modifyRange":1},"report":true}`)
	var job Job
	if err := decode(body, &job); err != nil || !job.Report {
		t.Fatalf("report:true decoded to Report %v (err %v)", job.Report, err)
	}
	rec, err := EncodeRecord(job)
	if err != nil || !bytes.Equal(rec, body) {
		t.Fatalf("report:true WAL record %s (err %v), want %s", rec, err, body)
	}
}

// TestJobRoundTrip: encode → decode is the identity on random jobs,
// through the WAL codec and through WriteJSON plus the strict decoder.
func TestJobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		job := randomJob(rng)
		b, err := EncodeRecord(job)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeJobPayload(b)
		if err != nil || !reflect.DeepEqual(got, job) {
			t.Fatalf("WAL round trip of %s: got %+v (err %v), want %+v", b, got, err, job)
		}
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, job)
		var strict Job
		if err := decode(rec.Body.Bytes(), &strict); err != nil || !reflect.DeepEqual(strict, job) {
			t.Fatalf("wire round trip of %s: got %+v (err %v), want %+v", rec.Body.Bytes(), strict, err, job)
		}
	}
}

// TestSubmitEntries pins the one submission-shape rule node and
// gateway both apply.
func TestSubmitEntries(t *testing.T) {
	pat := Job{Pattern: &Pattern{Offsets: []int{1}}}
	loop := Job{Loop: "for (i = 0; i < 4; i++) a[i] = 0;"}
	for _, tc := range []struct {
		name    string
		sub     Submit
		want    int
		wantErr string
	}{
		{"inline pattern", Submit{Job: pat}, 1, ""},
		{"inline loop", Submit{Job: loop, Priority: 2}, 1, ""},
		{"array", Submit{Jobs: []Job{pat, loop}}, 2, ""},
		{"both forms", Submit{Job: pat, Jobs: []Job{loop}}, 0, "body mixes an inline job with a jobs array; pick one form"},
		{"none", Submit{}, 0, "submission has no jobs"},
		{"empty job", Submit{Jobs: []Job{pat, {}}}, 0, "job 1 needs a pattern or a loop"},
		{"pattern and loop", Submit{Jobs: []Job{{Pattern: pat.Pattern, Loop: loop.Loop}}}, 0, "job 0 sets both pattern and loop; pick one"},
		{"max accesses", Submit{Job: Job{Pattern: &Pattern{Offsets: make([]int, model.MaxAccesses)}}}, 1, ""},
		{"too many accesses", Submit{Jobs: []Job{pat, {Pattern: &Pattern{Offsets: make([]int, model.MaxAccesses+1)}}}}, 0, "job 1 pattern has 4097 accesses, more than the 4096 allowed"},
	} {
		got, err := tc.sub.Entries()
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		if len(got) != tc.want || errText != tc.wantErr {
			t.Errorf("%s: %d entries, error %q; want %d, %q", tc.name, len(got), errText, tc.want, tc.wantErr)
		}
	}
}

// TestDecodeBodyStrict: unknown fields, trailing data and oversize
// bodies are refused; an accepted body comes back verbatim.
func TestDecodeBodyStrict(t *testing.T) {
	ok := `{"pattern":{"offsets":[1,2]},"agu":{"registers":1,"modifyRange":1}}` + "\n"
	for _, tc := range []struct {
		body    string
		wantErr string
	}{
		{ok, ""},
		{`{"pattern":{"offsets":[1]},"agu":{"registers":1,"modifyRange":1},"zzz":1}`, `unknown field "zzz"`},
		{`{"loop":"x"} {}`, "trailing data"},
		{`{"loop":"` + strings.Repeat("x", MaxBodyBytes) + `"}`, "too large"},
	} {
		var job Job
		r := httptest.NewRequest(http.MethodPost, "/v1/allocate", strings.NewReader(tc.body))
		raw, err := DecodeBody(r, &job)
		switch {
		case tc.wantErr == "" && (err != nil || string(raw) != tc.body):
			t.Errorf("body %.40q: err %v, raw %q", tc.body, err, raw)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("body %.40q: err %v, want %q", tc.body, err, tc.wantErr)
		}
	}
}

// decodeSeeds are hand-picked bodies at the edges of the strict
// decoder, shared by the decode fuzz targets.
var decodeSeeds = []string{
	`{}`, `null`, `[]`, `{"pattern":null}`, `{"pattern":{"offsets":[]}}`,
	`{"bindings":{}}`, `{"bindings":{"N":1,"N":2}}`, `{"agu":{"registers":1e3}}`,
	`{"loop":"<\ud800"}`, "{\"loop\":\"\xff\"}", `{"zzz":1}`, `{"loop":"x"} 1`,
}

// FuzzDecodeJob: the strict decoder never panics, and any body it
// accepts re-encodes to a job that decodes to an equal value.
func FuzzDecodeJob(f *testing.F) {
	for _, name := range []string{"pattern_job.wal", "loop_job.wal"} {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var job Job
		if decode(data, &job) != nil {
			return
		}
		b, err := EncodeRecord(job)
		if err != nil {
			t.Fatalf("accepted job does not encode: %v", err)
		}
		var again Job
		if err := decode(b, &again); err != nil {
			t.Fatalf("re-encoded job %s is refused: %v", b, err)
		}
		if len(job.Bindings) == 0 {
			job.Bindings = nil // omitempty drops an empty map
		}
		if !reflect.DeepEqual(job, again) {
			t.Fatalf("round trip through %s: got %+v, want %+v", b, again, job)
		}
	})
}

// TestBuildVersion: the build identity both servers report is never
// empty, whatever build info the test binary carries.
func TestBuildVersion(t *testing.T) {
	if v := BuildVersion(); v == "" {
		t.Fatal("BuildVersion returned empty")
	}
}

// TestNewLogger: both -log-format values build a logger, and anything
// else is refused with a message naming the flag and the bad value.
func TestNewLogger(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		if l, err := NewLogger(format); err != nil || l == nil {
			t.Errorf("NewLogger(%q) = %v, %v", format, l, err)
		}
	}
	_, err := NewLogger("xml")
	if err == nil {
		t.Fatal("unknown log format accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "-log-format") || !strings.Contains(msg, `"xml"`) {
		t.Errorf("error %q should name the flag and the value", msg)
	}
}
