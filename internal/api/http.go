package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// WriteJSON sends v as compact JSON, one line, with the given status
// code: the bytes json.Encoder.Encode writes, built whole so the
// answer goes out with a Content-Length in one write.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	bp := bodyPool.Get().(*[]byte)
	body, ok := appendFast((*bp)[:0], v)
	if ok {
		body = append(body, '\n')
	} else {
		buf := bytes.NewBuffer(body)
		json.NewEncoder(buf).Encode(v) //nolint:errcheck // an unencodable value sends an empty body, as before
		body = buf.Bytes()
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone — nothing left to do
	if cap(body) <= maxPooledBody {
		*bp = body
		bodyPool.Put(bp)
	}
}

// bodyPool recycles WriteJSON's body buffers (a ResponseWriter copies
// what it is given). Buffers above maxPooledBody, such as a large job
// listing, are left to the GC.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// WriteError sends the uniform error body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, Error{Error: fmt.Sprintf(format, args...)})
}

// DecodeBody reads the request body, capped at MaxBodyBytes, and
// strictly decodes it into v: unknown fields and trailing data are
// errors. It returns the body bytes so a gateway can forward exactly
// what it validated.
func DecodeBody(r *http.Request, v any) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	return data, decode(data, v)
}

// decode strictly decodes one JSON value into v: the one-pass reader
// when the body is plain, encoding/json otherwise.
func decode(data []byte, v any) error {
	if decodePlain(data, v) {
		return nil
	}
	return decodeStrict(data, v)
}

// decodeStrict is encoding/json's strict decode of one JSON value into
// v, the judge of every body decodePlain declines.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(any)); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// QueryInt parses an integer query parameter; empty means def.
func QueryInt(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}

// StatusWriter captures the response status for labeling.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the first status written and passes it on.
func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Status is the status written, 200 when the handler wrote none.
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// ValidRequestID bounds what a server echoes back into headers, logs
// and JSON: non-empty, at most 128 bytes, printable ASCII without
// quotes.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' || c == '"' {
			return false
		}
	}
	return true
}

// RouteOf normalizes a request path to a bounded label set, so the
// by-route metric families can't grow cardinality from scanner
// traffic. It covers the routes of both the node and the gateway.
func RouteOf(path string) string {
	switch path {
	case "/v1/allocate", "/v1/batch", "/v1/jobs", "/v1/stats", "/v1/cluster",
		"/metrics", "/healthz", "/debug/soak", "/debug/requests":
		return path
	}
	if strings.HasPrefix(path, "/v1/jobs/") {
		return "/v1/jobs/{id}"
	}
	return "other"
}
