package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// getOp returns an operation sending one GET that must answer 200.
func getOp(c *http.Client, url string) opFunc {
	return func(_, _ int, rec *opRec) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		t0 := time.Now()
		_, err := call(c, req, http.StatusOK, nil)
		rec.legs[0], rec.nLegs = time.Since(t0), 1
		rec.ok = err == nil
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var n atomic.Int64
	const stall = 60 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newConn()
	defer c.CloseIdleConnections()

	res := openLoop(1, 500, 200*time.Millisecond, getOp(c, srv.URL))
	if len(res.recs) != 100 {
		t.Fatalf("%d operations, want 100", len(res.recs))
	}
	stalled := &res.recs[19]
	if stalled.latency() < ms(stall) {
		t.Fatalf("stalled request latency %.1f ms, want >= %v", stalled.latency(), stall)
	}
	// The next request was due 2 ms later but could only be sent once
	// the stall ended: its service time is short, its latency is not.
	next := &res.recs[20]
	if ms(next.legs[0]) > 20 {
		t.Fatalf("request after the stall served in %v", next.legs[0])
	}
	if next.latency() < ms(stall)-10 {
		t.Fatalf("request after the stall: latency %.1f ms from due, want the stall's wait included", next.latency())
	}
}

func TestFailedRequestsCountAsMisses(t *testing.T) {
	codes := []int{http.StatusOK, http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusServiceUnavailable}
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(codes[int(n.Add(1)-1)%len(codes)])
	}))
	defer srv.Close()
	c := newConn()
	defer c.CloseIdleConnections()

	res := openLoop(1, 400, 100*time.Millisecond, getOp(c, srv.URL))
	var failed int
	lats := make([]float64, len(res.recs))
	for i := range res.recs {
		if !res.recs[i].ok {
			failed++
		}
		lats[i] = res.recs[i].latency()
	}
	if want := len(res.recs) * 3 / 4; failed != want {
		t.Fatalf("%d of %d failed, want %d (429 and 5xx)", failed, len(res.recs), want)
	}
	if limit := 1000.0; quantile(lats, 0.5) <= limit {
		t.Fatalf("median %v ms meets a %v ms limit although most requests failed", quantile(lats, 0.5), limit)
	}

	// A transport error (nothing listening) fails too.
	srv.Close()
	var rec opRec
	getOp(c, srv.URL)(0, 0, &rec)
	if rec.ok {
		t.Fatal("request to a closed server counted as served")
	}
}
