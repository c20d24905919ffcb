package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// opRec is one user operation as the load generator saw it. Latency
// runs from due (the intended send time in an open loop; the actual
// send in a closed loop) to end, less late.
type opRec struct {
	due, picked, end time.Time
	// late is how far past due the generator itself became ready to
	// send, beyond any wait for a busy connection (see openLoop).
	late time.Duration
	// legs are the service times (send → response) of the operation's
	// HTTP requests, in order; nLegs of them were sent.
	legs  [2]time.Duration
	nLegs int8
	ok    bool
	// req is the generated request the operation reported, slot the
	// slot it was accepted into (-1 when not accepted).
	req, slot int32
}

// latency is the operation's latency from its due time, less the
// generator's own lateness; a failed operation has infinite latency,
// so it misses every limit.
func (r *opRec) latency() float64 {
	if !r.ok {
		return math.Inf(1)
	}
	return ms(r.end.Sub(r.due) - r.late)
}

// opFunc performs operation i on connection conn, filling rec's legs,
// ok, req and slot fields.
type opFunc func(conn, i int, rec *opRec)

// newConn returns an HTTP client that keeps exactly one keep-alive
// connection per host, so nproc clients hold at most nproc connections
// to a frontend.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 10 * time.Second,
	}
}

// call sends one request and returns the status and body. Any
// transport error or a status other than want is an error.
func call(c *http.Client, req *http.Request, want int, buf []byte) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return buf, err
	}
	defer resp.Body.Close()
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	if resp.StatusCode != want {
		return buf, fmt.Errorf("status %d", resp.StatusCode)
	}
	return buf, nil
}

// openResult is one open-loop phase.
type openResult struct {
	recs []opRec
	// lag is, per operation, opRec.late in ms.
	lag   []float64
	start time.Time
	// elapsed is how long the phase took; longer than duration when
	// the server fell behind the offered rate.
	elapsed time.Duration
}

// maxGenLag bounds the generator's p99 lateness, in ms. Lateness is
// taken out of each latency, but a generator later than this no longer
// offers the schedule's arrival pattern, so the run fails. On a shared
// 2-core VM the p99 ran 2.5-5 ms late.
const maxGenLag = 10.0

// openLoop offers operations at a fixed rate for dur over conns
// connections. A pacer hands each operation, at its due time, to
// whichever connection is free; when all are busy it waits, and the
// operations behind it wait too, so their latency from due time
// includes the queueing a stall causes.
//
// The pacer sleeps with time.Sleep, which wakes up to a millisecond
// late here. Left in, that lateness alone would set the median latency
// at moderate rates, so each operation's own lateness — time past due
// not explained by every connection being busy — is measured and taken
// out of its latency. Spinning to the due time instead would hold a
// processor the in-process server needs, and yielding in the spin
// starves the runtime's network poller.
func openLoop(conns int, rate float64, dur time.Duration, op opFunc) openResult {
	n := int(rate * dur.Seconds())
	res := openResult{recs: make([]opRec, n), lag: make([]float64, n)}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range jobs {
				rec := &res.recs[i]
				rec.picked = time.Now()
				op(c, i, rec)
				rec.end = time.Now()
			}
		}(c)
	}
	res.start = time.Now().Add(time.Millisecond)
	handed := res.start
	for i := 0; i < n; i++ {
		due := res.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := time.Now()
		from := due
		if handed.After(from) {
			from = handed
		}
		late := ready.Sub(from)
		res.lag[i] = ms(late)
		res.recs[i].due, res.recs[i].late = due, late
		jobs <- i
		handed = time.Now()
	}
	close(jobs)
	wg.Wait()
	res.elapsed = time.Since(res.start)
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	recs     []opRec
	start    time.Time
	duration time.Duration
}

// closedLoop runs conns clients flat out for dur, each sending its next
// operation as soon as the previous one completes. Operation indices
// start at base so they continue the open-loop numbering.
func closedLoop(conns int, dur time.Duration, base int, op opFunc) closedResult {
	res := closedResult{start: time.Now(), duration: dur}
	end := res.start.Add(dur)
	per := make([][]opRec, conns)
	var next sync.Mutex
	i := base
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				next.Lock()
				idx := i
				i++
				next.Unlock()
				rec := opRec{due: now, picked: now}
				op(c, idx, &rec)
				rec.end = time.Now()
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	for _, p := range per {
		res.recs = append(res.recs, p...)
	}
	return res
}

// windowRates splits [start, start+dur) into k windows and returns the
// median over windows of the HTTP requests completed per second.
func windowRates(recs []opRec, start time.Time, dur time.Duration, k int) float64 {
	counts := make([]float64, k)
	width := dur / time.Duration(k)
	for i := range recs {
		w := int(recs[i].end.Sub(start) / width)
		if w >= 0 && w < k {
			counts[w] += float64(recs[i].nLegs)
		}
	}
	for w := range counts {
		counts[w] /= width.Seconds()
	}
	return median(counts)
}

// errLate reports a generator that ran late.
var errLate = errors.New("load generator ran late")
