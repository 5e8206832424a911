package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// wireZeros make the zero request values the one-pass reader decodes.
var wireZeros = []func() any{
	func() any { return new(Job) },
	func() any { return new(BatchRequest) },
	func() any { return new(Submit) },
}

// checkPlainMatchesStrict fails when the one-pass reader writes a value
// it declines, or accepts data that encoding/json's strict decoder
// refuses or decodes differently. It reports whether the reader
// accepted.
func checkPlainMatchesStrict(t *testing.T, data []byte, zero func() any) bool {
	t.Helper()
	fast, strict := zero(), zero()
	if !decodePlain(data, fast) {
		if !reflect.DeepEqual(fast, zero()) {
			t.Fatalf("declined %q but wrote %+v", data, fast)
		}
		return false
	}
	if err := decodeStrict(data, strict); err != nil {
		t.Fatalf("one-pass reader accepts %q into %T, encoding/json refuses it: %v", data, fast, err)
	}
	if !reflect.DeepEqual(fast, strict) {
		t.Fatalf("%q decodes to %+v, encoding/json gives %+v", data, fast, strict)
	}
	return true
}

// FuzzWireDecodeMatchesStdlib: whenever the one-pass reader accepts a
// body, encoding/json's strict decoder accepts it too and decodes the
// same value, for every request type the reader knows.
func FuzzWireDecodeMatchesStdlib(f *testing.F) {
	for _, name := range []string{"pattern_job.wal", "loop_job.wal"} {
		f.Add(golden(f, name))
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		// Case-folded and repeated keys.
		`{"Pattern":{"offsets":[1]}}`, `{"agu":{"Registers":1,"modifyrange":1}}`, `{"JOBS":[]}`,
		`{"loop":"a","loop":"b"}`, `{"pattern":{"offsets":[1]},"pattern":{"stride":2}}`,
		`{"jobs":[],"jobs":[{}]}`, `{"bindings":{"N":1},"bindings":{"M":2}}`, `{"priority":1,"priority":2}`,
		// null in every position.
		`{"loop":null}`, `{"jobs":null}`, `{"jobs":[null]}`, `{"pattern":{"offsets":null}}`, `{"pattern":{"offsets":[null]}}`,
		// Numbers outside the plain integers.
		`{"priority":1e3}`, `{"pattern":{"offsets":[1.0]}}`, `{"agu":{"registers":-0}}`,
		`{"pattern":{"offsets":[-0,0]}}`, `{"agu":{"registers":01}}`, `{"priority":-}`,
		`{"priority":999999999999999999}`, `{"priority":1234567890123456789}`,
		`{"priority":-9223372036854775808}`, `{"pattern":{"offsets":[9223372036854775808]}}`,
		// Escapes, surrogates, invalid UTF-8 and a BOM.
		`{"loop":"\u003cx\u003e \u0026"}`, `{"loop":"\ud83d\ude00"}`, `{"strategy":"\ud800"}`,
		`{"bindings":{"N":1,"N":2}}`, `{"loop":"\x"}`, "{\"strategy\":\"\xff\"}",
		"{\"bindings\":{\"\xff\":1}}", "{\"loop\":\"a\x01\"}", "\xef\xbb\xbf{}",
		// Trailing data and whitespace.
		`{"jobs":[]} 1`, `{"jobs":[]}` + " \t\r\n", ` { "jobs" : [ { } ] } `,
		// Whole request bodies.
		`{"jobs":[{"pattern":{"offsets":[1,2]},"agu":{"registers":1,"modifyRange":1}},{"loop":"x","bindings":{"N":3}}]}`,
		`{"pattern":{"array":"é","stride":2,"offsets":[1,-2]},"agu":{"registers":2,"modifyRange":1},"wrap":true,"strategy":"optimal","report":false,"priority":-4}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, zero := range wireZeros {
			checkPlainMatchesStrict(t, data, zero)
		}
	})
}

// TestDecodePlainAcceptsEncoded: the bodies clients send, compact JSON
// from encoding/json, take the one-pass path and decode as
// encoding/json decodes them.
func TestDecodePlainAcceptsEncoded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	jobs := func() []Job {
		out := make([]Job, 1+rng.Intn(3))
		for i := range out {
			out[i] = randomJob(rng)
		}
		return out
	}
	for i := 0; i < 1000; i++ {
		sub := Submit{Priority: rng.Intn(21) - 10}
		if rng.Intn(2) == 0 {
			sub.Job = randomJob(rng)
		} else {
			sub.Jobs = jobs()
		}
		for k, v := range []any{randomJob(rng), BatchRequest{Jobs: jobs()}, sub} {
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !checkPlainMatchesStrict(t, body, wireZeros[k]) {
				t.Fatalf("one-pass reader declines %s", body)
			}
		}
	}
	if body, _ := json.Marshal(coldBatch()); !decodePlain(body, new(BatchRequest)) {
		t.Fatalf("one-pass reader declines the cold batch %s", body)
	}
}

// responsePieces extend randomJob's alphabet with what only an answer
// carries: line separators, invalid UTF-8 and control bytes.
var responsePieces = append(strings.Split(jobRunes, ""), "\u2028", "\u2029", "\xff", "\xe2\x80", "\x00", "\x1f", "\x7f")

// randomBatchResponse draws a batch answer over the whole response
// shape: nil and empty slices, errors beside results, reports on and
// off, extreme integers and strings encoding/json escapes.
func randomBatchResponse(rng *rand.Rand) BatchResponse {
	str := func() string { return randomString(rng, responsePieces) }
	num := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		}
		return rng.Int63n(2001) - 1000
	}
	ints := func() []int {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		xs := make([]int, 1+rng.Intn(6))
		for i := range xs {
			xs[i] = int(num())
		}
		return xs
	}
	alloc := func() Alloc {
		a := Alloc{
			Array: str(), Offsets: ints(), Cost: int(num()), VirtualRegisters: int(num()),
			RegistersUsed: int(num()), Merged: rng.Intn(2) == 0, CoverExact: rng.Intn(2) == 0,
			GlobalRegisters: ints(), CacheHit: rng.Intn(2) == 0, ElapsedMicros: num(),
		}
		if n := rng.Intn(4); n > 0 {
			a.Registers = make([][]int, n-1)
			for i := range a.Registers {
				a.Registers[i] = ints()
			}
		}
		if rng.Intn(2) == 0 {
			a.Report = str()
		}
		return a
	}
	job := func() JobResponse {
		var r JobResponse
		if rng.Intn(2) == 0 {
			r.Error = str()
		}
		if n := rng.Intn(4); n > 0 {
			r.Results = make([]Alloc, n-1)
			for i := range r.Results {
				r.Results[i] = alloc()
			}
		}
		return r
	}
	resp := BatchResponse{ElapsedMicros: num()}
	if n := rng.Intn(5); n > 0 {
		resp.Results = make([]JobResponse, n-1)
		for i := range resp.Results {
			resp.Results[i] = job()
		}
	}
	return resp
}

// TestAppendJSONMatchesEncoder: the one-pass encoder writes exactly
// what encoding/json writes, on the wire (json.Encoder.Encode, with
// its newline) and in the WAL (json.Marshal), and declines what
// encoding/json refuses.
func TestAppendJSONMatchesEncoder(t *testing.T) {
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(v any, appended []byte) {
		t.Helper()
		want := encode(v)
		if got := append(appended, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("appendJSON of %+v\n got: %s\nwant: %s", v, got, want)
		}
		if _, ok := v.(Alloc); ok {
			return // nested only: WriteJSON and EncodeRecord never see one alone
		}
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		if !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
			t.Fatalf("WriteJSON of %+v sent %s (Content-Length %s)\nwant: %s", v, rec.Body.Bytes(), rec.Header().Get("Content-Length"), want)
		}
		if rec, err := EncodeRecord(v); err != nil || !bytes.Equal(rec, want[:len(want)-1]) {
			t.Fatalf("EncodeRecord of %+v = %s (err %v)\nwant: %s", v, rec, err, want[:len(want)-1])
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		resp := randomBatchResponse(rng)
		check(resp, resp.appendJSON(nil))
		for _, r := range resp.Results {
			check(r, r.appendJSON(nil))
			for _, a := range r.Results {
				check(a, a.appendJSON(nil))
			}
		}
	}

	// The async path: WAL job payloads, 202 bodies and job statuses,
	// whose times json.Marshal refuses outside RFC 3339's range.
	for i := 0; i < 2000; i++ {
		job := randomJob(rng)
		switch {
		case job.Pattern != nil && rng.Intn(4) == 0:
			job.Pattern.Offsets = nil
		case job.Bindings == nil && rng.Intn(4) == 0:
			job.Bindings = map[string]int{}
		}
		check(job, job.appendJSON(nil))
		sub := randomSubmitResponse(rng)
		check(sub, sub.appendJSON(nil))
	}
	var accepted, refused int
	for i := 0; i < 4000; i++ {
		st := randomJobStatus(rng)
		appended, ok := st.appendJSON(nil)
		if _, err := json.Marshal(st); err != nil {
			refused++
			if ok {
				t.Fatalf("appendJSON accepts %+v, which json.Marshal refuses: %v", st, err)
			}
			if b, ok := appendFast([]byte("x"), st); ok || string(b) != "x" {
				t.Fatalf("appendFast of %+v = %q, %v; want it declined with the buffer untouched", st, b, ok)
			}
			if _, err := EncodeRecord(st); err == nil {
				t.Fatalf("EncodeRecord of %+v succeeded, json.Marshal refuses it", st)
			}
			continue
		}
		accepted++
		if !ok {
			t.Fatalf("appendJSON refuses %+v, which json.Marshal encodes", st)
		}
		check(st, appended)
	}
	if accepted < 1000 || refused < 100 {
		t.Fatalf("%d statuses accepted and %d refused: the draw misses a side", accepted, refused)
	}
}

// randomSubmitResponse draws a 202 body: with and without the single
// ID, nil, empty and filled ID lists.
func randomSubmitResponse(rng *rand.Rand) SubmitResponse {
	var r SubmitResponse
	if rng.Intn(2) == 0 {
		r.ID = randomString(rng, responsePieces)
	}
	if n := rng.Intn(5); n > 0 {
		r.IDs = make([]string, n-1)
		for i := range r.IDs {
			r.IDs[i] = randomString(rng, responsePieces)
		}
	}
	return r
}

// statusTimes are the instants a job status carries: zero, whole and
// fractional seconds in UTC, local and odd zones, the ends of RFC
// 3339's range, and times past them that time.Time.MarshalJSON
// refuses (a year outside [0,9999], a zone offset of 24 hours or
// more).
var statusTimes = []time.Time{
	{},
	time.Unix(0, 0).UTC(),
	time.Date(2026, 10, 19, 22, 56, 45, 0, time.UTC),
	time.Date(2026, 10, 19, 22, 56, 45, 120000000, time.UTC),
	time.Date(2026, 10, 19, 22, 56, 45, 123456789, time.Local),
	time.Date(2026, 1, 2, 3, 4, 5, 6, time.FixedZone("", 5*3600+30*60)),
	time.Date(2026, 1, 2, 3, 4, 5, 6000, time.FixedZone("X", -(23*3600+59*60))),
	time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2026, 1, 2, 3, 4, 5, 0, time.FixedZone("", 24*3600)),
	time.Date(2026, 1, 2, 3, 4, 5, 0, time.FixedZone("", -100*3600)),
}

// randomJobStatus draws a job status over the whole shape: the times
// above, absent and present optional times, error text with escapes
// and a nil or filled result.
func randomJobStatus(rng *rand.Rand) JobStatus {
	str := func() string { return randomString(rng, responsePieces) }
	when := func() time.Time {
		// Mostly in range, so both outcomes of a draw are common.
		if rng.Intn(4) == 0 {
			return statusTimes[rng.Intn(len(statusTimes))]
		}
		return statusTimes[rng.Intn(len(statusTimes)-4)]
	}
	st := JobStatus{
		ID: str(), State: str(), Priority: rng.Intn(21) - 10, SubmittedAt: when(),
		QueueWaitMicros: rng.Int63n(1 << 40), RunMicros: rng.Int63() - 1<<62,
	}
	if rng.Intn(2) == 0 {
		t := when()
		st.StartedAt = &t
	}
	if rng.Intn(2) == 0 {
		t := when()
		st.FinishedAt = &t
	}
	if rng.Intn(2) == 0 {
		st.Error = str()
	}
	if resp := randomBatchResponse(rng); len(resp.Results) > 0 {
		st.Result = &resp.Results[0]
	}
	if rng.Intn(2) == 0 {
		st.TraceID = str()
	}
	return st
}

// TestDecodeIntoNonZeroMerges: decoding into a value that is already
// set keeps encoding/json's merge; the one-pass reader leaves it alone.
func TestDecodeIntoNonZeroMerges(t *testing.T) {
	job := Job{Strategy: "optimal"}
	if err := decode([]byte(`{"loop":"x"}`), &job); err != nil || job.Strategy != "optimal" || job.Loop != "x" {
		t.Fatalf("decoded %+v (err %v), want the loop merged into the set strategy", job, err)
	}
}
