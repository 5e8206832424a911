package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// The job schema's one-pass codec. Request bodies are decoded by a
// hand-written reader that accepts only a plain subset of JSON and
// declines everything else to the strict encoding/json decoder, which
// stays the only judge of a bad body and the only source of error
// text. Response bodies are appended field by field, with any string
// that needs escaping handed to json.Marshal. Both produce exactly
// what encoding/json would.

// decodePlain decodes data into v, a pointer to a zero Job,
// BatchRequest or Submit, in one pass, and reports whether it did. It
// writes v only on success. It declines (returns false) on any other
// v and on any body outside the plain subset: a key that is not a
// field name byte for byte, a repeated key, null, a number with a
// fraction, an exponent, a leading zero or more than 18 digits, a
// string with a raw control byte or invalid UTF-8, a value of the
// wrong kind, or anything but whitespace after the value. A string
// token holding a backslash escape is unquoted by encoding/json.
func decodePlain(data []byte, v any) bool {
	if rv := reflect.ValueOf(v); rv.Kind() != reflect.Pointer || rv.IsNil() || !rv.Elem().IsZero() {
		return false // encoding/json merges into a non-zero value
	}
	r := reader{data: data}
	switch v := v.(type) {
	case *Job:
		var j Job
		if r.job(&j) && r.end() {
			*v = j
			return true
		}
	case *BatchRequest:
		var b BatchRequest
		var seen uint
		if r.object(func(key []byte) bool {
			return string(key) == `"jobs"` && once(&seen, 0) && r.jobs(&b.Jobs)
		}) && r.end() {
			*v = b
			return true
		}
	case *Submit:
		var s Submit
		if r.submit(&s) && r.end() {
			*v = s
			return true
		}
	}
	return false
}

// reader walks one JSON body. Every method returns false to decline.
type reader struct {
	data []byte
	i    int
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (r *reader) peek() byte {
	for ; r.i < len(r.data); r.i++ {
		switch c := r.data[r.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// consume skips whitespace and the byte c, if c comes next.
func (r *reader) consume(c byte) bool {
	if r.peek() != c {
		return false
	}
	r.i++
	return true
}

// end reports whether only whitespace is left.
func (r *reader) end() bool {
	r.peek()
	return r.i == len(r.data)
}

// object reads one object, calling field with each key's string token,
// quotes included, and the reader at the key's value.
func (r *reader) object(field func(key []byte) bool) bool {
	if !r.consume('{') {
		return false
	}
	if r.consume('}') {
		return true
	}
	for {
		key, ok := r.quoted()
		if !ok || !r.consume(':') || !field(key) {
			return false
		}
		if !r.consume(',') {
			return r.consume('}')
		}
	}
}

// array reads one array, calling elem with the reader at each element.
func (r *reader) array(elem func() bool) bool {
	if !r.consume('[') {
		return false
	}
	if r.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !r.consume(',') {
			return r.consume(']')
		}
	}
}

// quoted reads one string token and returns it with its quotes. It
// declines a raw control byte and invalid UTF-8; escapes are left to
// unquote.
func (r *reader) quoted() ([]byte, bool) {
	if r.peek() != '"' {
		return nil, false
	}
	start, ascii := r.i, true
	for j := start + 1; j < len(r.data); j++ {
		switch c := r.data[j]; {
		case c == '"':
			r.i = j + 1
			tok := r.data[start:r.i]
			return tok, ascii || utf8.Valid(tok)
		case c == '\\':
			j++ // the escaped byte cannot end the token
		case c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// unquote returns a string token's value. A token with a backslash
// escape goes to encoding/json, so there is one unescaper.
func unquote(tok []byte) (string, bool) {
	body := tok[1 : len(tok)-1]
	if bytes.IndexByte(body, '\\') < 0 {
		return string(body), true
	}
	var s string
	return s, json.Unmarshal(tok, &s) == nil
}

func (r *reader) str(dst *string) bool {
	tok, ok := r.quoted()
	if ok {
		*dst, ok = unquote(tok)
	}
	return ok
}

func (r *reader) int(dst *int) bool {
	d, neg := r.data, r.peek() == '-'
	i := r.i
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
		n = n*10 + int64(d[i]-'0')
	}
	digits := i - start
	// A fraction or exponent is left unread, so the byte after the
	// value is not a delimiter and the caller declines.
	if digits == 0 || digits > 18 || d[start] == '0' && digits > 1 {
		return false
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return false // a 32-bit int overflows; encoding/json reports it
	}
	r.i, *dst = i, int(n)
	return true
}

func (r *reader) bool(dst *bool) bool {
	r.peek()
	switch rest := r.data[r.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		r.i, *dst = r.i+4, true
	case bytes.HasPrefix(rest, []byte("false")):
		r.i, *dst = r.i+5, false
	default:
		return false
	}
	return true
}

// ints reads an array of integers, sized by its commas.
func (r *reader) ints(dst *[]int) bool {
	if r.peek() != '[' {
		return false
	}
	n := 0
	if end := bytes.IndexByte(r.data[r.i:], ']'); end > 0 {
		n = bytes.Count(r.data[r.i:r.i+end], []byte{','}) + 1
	}
	out := make([]int, 0, n)
	if !r.array(func() bool {
		var x int
		ok := r.int(&x)
		out = append(out, x)
		return ok
	}) {
		return false
	}
	*dst = out
	return true
}

// once sets bit in seen and reports whether it was clear: a repeated
// key declines.
func once(seen *uint, bit uint) bool {
	if *seen&(1<<bit) != 0 {
		return false
	}
	*seen |= 1 << bit
	return true
}

func (r *reader) job(j *Job) bool {
	var seen uint
	return r.object(func(key []byte) bool { return r.jobField(j, key, &seen) })
}

// jobField reads the value of one Job key, recording it in seen's
// low seven bits.
func (r *reader) jobField(j *Job, key []byte, seen *uint) bool {
	switch string(key) {
	case `"pattern"`:
		j.Pattern = new(Pattern)
		return once(seen, 0) && r.pattern(j.Pattern)
	case `"loop"`:
		return once(seen, 1) && r.str(&j.Loop)
	case `"bindings"`:
		return once(seen, 2) && r.bindings(&j.Bindings)
	case `"agu"`:
		return once(seen, 3) && r.agu(&j.AGU)
	case `"wrap"`:
		return once(seen, 4) && r.bool(&j.Wrap)
	case `"strategy"`:
		return once(seen, 5) && r.str(&j.Strategy)
	case `"report"`:
		return once(seen, 6) && r.bool(&j.Report)
	}
	return false
}

func (r *reader) submit(s *Submit) bool {
	var seen uint
	return r.object(func(key []byte) bool {
		switch string(key) {
		case `"jobs"`:
			return once(&seen, 7) && r.jobs(&s.Jobs)
		case `"priority"`:
			return once(&seen, 8) && r.int(&s.Priority)
		}
		return r.jobField(&s.Job, key, &seen)
	})
}

func (r *reader) jobs(dst *[]Job) bool {
	out := []Job{}
	if !r.array(func() bool {
		out = append(out, Job{})
		return r.job(&out[len(out)-1])
	}) {
		return false
	}
	*dst = out
	return true
}

func (r *reader) pattern(p *Pattern) bool {
	var seen uint
	return r.object(func(key []byte) bool {
		switch string(key) {
		case `"array"`:
			return once(&seen, 0) && r.str(&p.Array)
		case `"stride"`:
			return once(&seen, 1) && r.int(&p.Stride)
		case `"offsets"`:
			return once(&seen, 2) && r.ints(&p.Offsets)
		}
		return false
	})
}

func (r *reader) agu(a *AGU) bool {
	var seen uint
	return r.object(func(key []byte) bool {
		switch string(key) {
		case `"registers"`:
			return once(&seen, 0) && r.int(&a.Registers)
		case `"modifyRange"`:
			return once(&seen, 1) && r.int(&a.ModifyRange)
		}
		return false
	})
}

func (r *reader) bindings(dst *map[string]int) bool {
	m := map[string]int{}
	if !r.object(func(key []byte) bool {
		name, ok := unquote(key)
		if _, dup := m[name]; !ok || dup {
			return false
		}
		var v int
		ok = r.int(&v)
		m[name] = v
		return ok
	}) {
		return false
	}
	*dst = m
	return true
}

// appendFast appends v's compact JSON, exactly as json.Marshal writes
// it, when v is a response type with a one-pass encoder; ok is false
// for every other type.
func appendFast(b []byte, v any) (out []byte, ok bool) {
	switch v := v.(type) {
	case JobResponse:
		return v.appendJSON(b), true
	case BatchResponse:
		return v.appendJSON(b), true
	case JobStatus:
		if out, ok := v.appendJSON(b); ok {
			return out, true
		}
	case SubmitResponse:
		return v.appendJSON(b), true
	case Job:
		return v.appendJSON(b), true
	}
	return b, false
}

// appendKey appends an object member's quoted key and colon, after a
// comma unless it is the first member of the object whose '{' ends at
// start.
func appendKey(b []byte, start int, key string) []byte {
	if len(b) > start {
		b = append(b, ',')
	}
	return append(b, key...)
}

// appendJSON appends the job's compact JSON, as json.Marshal writes it
// (map keys sorted).
func (j *Job) appendJSON(b []byte) []byte {
	b = append(b, '{')
	start := len(b)
	if p := j.Pattern; p != nil {
		b = append(b, `"pattern":{`...)
		ps := len(b)
		if p.Array != "" {
			b = appendKey(b, ps, `"array":`)
			b = appendString(b, p.Array)
		}
		if p.Stride != 0 {
			b = appendKey(b, ps, `"stride":`)
			b = strconv.AppendInt(b, int64(p.Stride), 10)
		}
		b = appendKey(b, ps, `"offsets":`)
		b = appendInts(b, p.Offsets)
		b = append(b, '}')
	}
	if j.Loop != "" {
		b = appendKey(b, start, `"loop":`)
		b = appendString(b, j.Loop)
	}
	if len(j.Bindings) > 0 {
		b = appendKey(b, start, `"bindings":{`)
		names := make([]string, 0, len(j.Bindings))
		for k := range j.Bindings {
			names = append(names, k)
		}
		slices.Sort(names)
		for i, k := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(j.Bindings[k]), 10)
		}
		b = append(b, '}')
	}
	b = appendKey(b, start, `"agu":{"registers":`)
	b = strconv.AppendInt(b, int64(j.AGU.Registers), 10)
	b = append(b, `,"modifyRange":`...)
	b = strconv.AppendInt(b, int64(j.AGU.ModifyRange), 10)
	b = append(b, '}')
	if j.Wrap {
		b = append(b, `,"wrap":true`...)
	}
	if j.Strategy != "" {
		b = append(b, `,"strategy":`...)
		b = appendString(b, j.Strategy)
	}
	if j.Report {
		b = append(b, `,"report":true`...)
	}
	return append(b, '}')
}

// appendJSON appends the 202 body's compact JSON, as json.Marshal
// writes it.
func (r *SubmitResponse) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if r.ID != "" {
		b = append(b, `"id":`...)
		b = appendString(b, r.ID)
		b = append(b, ',')
	}
	b = append(b, `"ids":`...)
	if r.IDs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, id := range r.IDs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, id)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendJSON appends the job status's compact JSON, as json.Marshal
// writes it; ok is false when a time is one json.Marshal refuses.
func (s *JobStatus) appendJSON(b []byte) (out []byte, ok bool) {
	b = append(b, `{"id":`...)
	b = appendString(b, s.ID)
	b = append(b, `,"state":`...)
	b = appendString(b, s.State)
	b = append(b, `,"priority":`...)
	b = strconv.AppendInt(b, int64(s.Priority), 10)
	b = append(b, `,"submittedAt":`...)
	if b, ok = appendTime(b, s.SubmittedAt); !ok {
		return b, false
	}
	if s.StartedAt != nil {
		b = append(b, `,"startedAt":`...)
		if b, ok = appendTime(b, *s.StartedAt); !ok {
			return b, false
		}
	}
	if s.FinishedAt != nil {
		b = append(b, `,"finishedAt":`...)
		if b, ok = appendTime(b, *s.FinishedAt); !ok {
			return b, false
		}
	}
	b = append(b, `,"queueWaitMicros":`...)
	b = strconv.AppendInt(b, s.QueueWaitMicros, 10)
	b = append(b, `,"runMicros":`...)
	b = strconv.AppendInt(b, s.RunMicros, 10)
	if s.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, s.Error)
	}
	if s.Result != nil {
		b = append(b, `,"result":`...)
		b = s.Result.appendJSON(b)
	}
	if s.TraceID != "" {
		b = append(b, `,"traceId":`...)
		b = appendString(b, s.TraceID)
	}
	return append(b, '}'), true
}

// appendTime appends t quoted in RFC 3339 with nanoseconds, as
// time.Time.MarshalJSON writes it. Like MarshalJSON it refuses (ok
// false) a year outside [0,9999] and a zone offset of 24 hours or
// more, which RFC 3339 cannot express.
func appendTime(b []byte, t time.Time) (out []byte, ok bool) {
	b = append(b, '"')
	start := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	switch {
	case b[start+len("9999")] != '-':
		return b, false
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		hh := b[len(b)-len("07:00"):]
		if '0' <= c && c <= '9' || 10*(hh[0]-'0')+(hh[1]-'0') >= 24 {
			return b, false
		}
	}
	return append(b, '"'), true
}

// appendJSON appends the allocation's compact JSON: the bytes
// json.Marshal gives, which json.Encoder.Encode ends with a newline.
func (a *Alloc) appendJSON(b []byte) []byte {
	b = append(b, `{"array":`...)
	b = appendString(b, a.Array)
	b = append(b, `,"offsets":`...)
	b = appendInts(b, a.Offsets)
	b = append(b, `,"cost":`...)
	b = strconv.AppendInt(b, int64(a.Cost), 10)
	b = append(b, `,"virtualRegisters":`...)
	b = strconv.AppendInt(b, int64(a.VirtualRegisters), 10)
	b = append(b, `,"registersUsed":`...)
	b = strconv.AppendInt(b, int64(a.RegistersUsed), 10)
	b = append(b, `,"merged":`...)
	b = strconv.AppendBool(b, a.Merged)
	b = append(b, `,"coverExact":`...)
	b = strconv.AppendBool(b, a.CoverExact)
	b = append(b, `,"registers":`...)
	if a.Registers == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, regs := range a.Registers {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInts(b, regs)
		}
		b = append(b, ']')
	}
	if len(a.GlobalRegisters) > 0 {
		b = append(b, `,"globalRegisters":`...)
		b = appendInts(b, a.GlobalRegisters)
	}
	b = append(b, `,"cacheHit":`...)
	b = strconv.AppendBool(b, a.CacheHit)
	b = append(b, `,"elapsedMicros":`...)
	b = strconv.AppendInt(b, a.ElapsedMicros, 10)
	if a.Report != "" {
		b = append(b, `,"report":`...)
		b = appendString(b, a.Report)
	}
	return append(b, '}')
}

// appendJSON appends the job response's compact JSON, as json.Marshal
// writes it.
func (r *JobResponse) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if r.Error != "" {
		b = append(b, `"error":`...)
		b = appendString(b, r.Error)
	}
	if len(r.Results) > 0 {
		if r.Error != "" {
			b = append(b, ',')
		}
		b = append(b, `"results":[`...)
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = r.Results[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendJSON appends the batch response's compact JSON, as
// json.Marshal writes it.
func (r *BatchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = r.Results[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"elapsedMicros":`...)
	b = strconv.AppendInt(b, r.ElapsedMicros, 10)
	return append(b, '}')
}

// appendInts appends a JSON array of integers, null for a nil slice.
func appendInts(b []byte, xs []int) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendString appends s quoted. A string outside printable ASCII, or
// one holding a byte encoding/json escapes (`"\<>&`), goes to
// json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) //nolint:errcheck // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
