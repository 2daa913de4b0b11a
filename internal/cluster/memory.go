package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// MemTransport is an http.RoundTripper that serves each request, in the
// calling goroutine, with the handler registered under the request URL's
// host: a fleet in one process, with no sockets. Set it as the
// coordinator's HTTPClient transport and name the peers http://<host>.
// Everything but the network stays real: the frame codec on both sides,
// the node's request-body cap, and the caller's context, which the handler
// sees and which ends the exchange as it would a network client's.
type MemTransport map[string]http.Handler

// RoundTrip implements http.RoundTripper.
func (m MemTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	h, ok := m[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("cluster: no in-memory node at %q", req.URL.Host)
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := &memResponse{header: http.Header{}}
	h.ServeHTTP(w, req)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	code := w.code
	if code == 0 {
		code = http.StatusOK
	}
	return &http.Response{
		Status:        strconv.Itoa(code) + " " + http.StatusText(code),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          io.NopCloser(&w.body),
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}, nil
}

// memResponse records one handler's answer.
type memResponse struct {
	header http.Header
	code   int // 0 until the handler writes a status or a byte
	body   bytes.Buffer
}

func (w *memResponse) Header() http.Header { return w.header }

func (w *memResponse) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memResponse) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}
