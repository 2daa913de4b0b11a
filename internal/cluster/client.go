package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// transport speaks the node RPC protocol to one base URL, with a
// per-attempt deadline and bounded retry-with-backoff on transient
// failures. All node RPCs are retry-safe: grow/close/info are idempotent,
// open at worst parks an orphan cursor for the TTL sweeper (a released
// open that finished parks none), and step ships a cumulative offer
// suffix (see StepRequest.From).
type transport struct {
	base     string // http://host:port, no trailing slash
	hc       *http.Client
	deadline time.Duration // per attempt; 0 = rely on the caller's context
	retries  int           // extra attempts after a transient failure
	backoff  time.Duration // first retry delay; doubles per attempt
	onRetry  func()        // metrics hook, may be nil
}

// rpcError is a non-2xx node response, preserved with its status code so
// the retry and degradation policies can classify it.
type rpcError struct {
	Code int
	Msg  string
}

func (e *rpcError) Error() string {
	return fmt.Sprintf("node rpc error %d: %s", e.Code, e.Msg)
}

// Is lets callers recognise a cursor the node no longer holds — evicted
// under capacity pressure, say — without parsing statuses.
func (e *rpcError) Is(target error) bool {
	return target == ErrUnknownCursor && e.Code == http.StatusNotFound
}

// errAttemptTimeout marks a per-attempt deadline expiry — a hung node,
// not a caller that gave up. It must stay distinct from the context
// errors: those abort the exchange, this one retries and ultimately
// degrades.
var errAttemptTimeout = errors.New("node rpc: attempt deadline exceeded")

// transientErr reports whether err is worth retrying: network-level
// failures (node restarting, connection refused/reset) and the statuses
// nodes use for momentary conditions — 5xx (including 503 store-full) and
// 404 (a cursor taken by a still-draining request).
func transientErr(err error) bool {
	var re *rpcError
	if errors.As(err, &re) {
		return re.Code >= 500 || re.Code == http.StatusNotFound
	}
	if errors.Is(err, errAttemptTimeout) {
		return true // a hung node: hand the next attempt a fresh deadline
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false // the caller's context decides, not the retry loop
	}
	// Everything else coming out of http.Client.Do is network-level.
	return err != nil
}

// maxResponseBody caps what a client reads of one node response, the
// largest of which is a grow archive: at 12 bytes an examined document it
// holds over 5 M of them.
const maxResponseBody = 64 << 20

// do posts one RPC request frame and returns the raw response frame. A
// single attempt; call is the retrying entry point.
func (t *transport) do(parent context.Context, endpoint string, body []byte) ([]byte, error) {
	ctx := parent
	if t.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, t.deadline)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		t.base+PathPrefix+endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", frameContentType)
	resp, err := t.hc.Do(req)
	if err != nil {
		// Unwrap the url.Error so context errors keep their identity —
		// but only the CALLER's context aborts the exchange; an expired
		// per-attempt deadline means a hung node and stays transient.
		if ctxErr := parent.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		if ctx.Err() != nil {
			return nil, errAttemptTimeout
		}
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := readBody(io.LimitReader(resp.Body, maxResponseBody), resp.ContentLength, maxResponseBody)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &rpcError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(raw))}
	}
	return raw, nil
}

// call posts in to endpoint, retrying transient failures with doubling
// backoff, and decodes the response frame into out (skipped when out is
// nil). The caller's context bounds the whole exchange, including
// backoff sleeps.
func (t *transport) call(ctx context.Context, endpoint string, in frameEncoder, out frameDecoder) error {
	raw, err := t.callRaw(ctx, endpoint, in.appendFrame(nil))
	if err != nil || out == nil {
		return err
	}
	return decodeFrame(raw, out)
}

func (t *transport) callRaw(ctx context.Context, endpoint string, body []byte) ([]byte, error) {
	delay := t.backoff
	if delay <= 0 {
		delay = 25 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		raw, err := t.do(ctx, endpoint, body)
		if err == nil {
			return raw, nil
		}
		lastErr = err
		if attempt >= t.retries || !transientErr(err) {
			return nil, lastErr
		}
		if t.onRetry != nil {
			t.onRetry()
		}
		// Full jitter keeps synchronized retries from re-stampeding a
		// recovering node.
		sleep := time.Duration(rand.Int63n(int64(delay))) + delay/2
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(sleep):
		}
		delay *= 2
	}
}
