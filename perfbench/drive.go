package main

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed request as the client saw it.
type sample struct {
	req    request
	status int
	err    error
	digest [32]byte
	bytes  int
	// service runs from send to the last body byte; latency is the same
	// for a closed loop and runs from the due time for an open loop, so
	// it includes any wait for a free connection.
	service time.Duration
	latency time.Duration
	// ttfb runs from send to the first body byte.
	ttfb time.Duration
	// end is when the last body byte arrived.
	end time.Time
	// lag is how late the open-loop dispatcher released the request.
	lag time.Duration
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// newClient returns a client with at most conns connections to the
// server, kept alive between requests. The large read buffer lets one
// read drain many small NDJSON chunks, keeping the client's share of
// the shared cores small.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		ReadBufferSize:      64 << 10,
	}}
}

// fetch sends req and reads the whole body, hashing it as it arrives.
// buf is the read buffer; keep, when not nil, receives a copy of the
// body.
func fetch(c *http.Client, base string, req request, buf []byte, keep *bytes.Buffer) sample {
	s := sample{req: req}
	start := time.Now()
	resp, err := c.Get(base + req.url)
	if err != nil {
		s.err = err
		s.end = time.Now()
		s.service = s.end.Sub(start)
		s.latency = s.service
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	h := sha256.New()
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if s.bytes == 0 {
				s.ttfb = time.Since(start)
			}
			s.bytes += n
			h.Write(buf[:n])
			if keep != nil {
				keep.Write(buf[:n])
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			s.err = err
			break
		}
	}
	s.end = time.Now()
	s.service = s.end.Sub(start)
	s.latency = s.service
	h.Sum(s.digest[:0])
	return s
}

// afterFunc runs on the client goroutine once a response is complete,
// before that client sends again; body is the response body.
type afterFunc func(s *sample, body []byte)

// runClient is one connection's loop state: a read buffer and, when
// the body is needed after the response, a copy of it.
type runClient struct {
	buf  []byte
	body *bytes.Buffer
}

func newRunClient(keepBody bool) *runClient {
	rc := &runClient{buf: make([]byte, 64<<10)}
	if keepBody {
		rc.body = new(bytes.Buffer)
	}
	return rc
}

func (rc *runClient) do(c *http.Client, base string, req request, after afterFunc) sample {
	if rc.body != nil {
		rc.body.Reset()
	}
	s := fetch(c, base, req, rc.buf, rc.body)
	if after != nil {
		after(&s, rc.body.Bytes())
	}
	return s
}

// closedLoop runs w.clients connections for d: each sends w.next(i) for
// the next unclaimed i (starting at first) as soon as its previous
// response is complete. Requests sent before the window closes run to
// completion; elapsed runs from the start to the last response, and
// next is the first unclaimed index.
func closedLoop(c *http.Client, base string, w *workload, first int, d time.Duration, after afterFunc) (samples []sample, elapsed time.Duration, next int) {
	var (
		idx atomic.Int64
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	idx.Store(int64(first))
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < w.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := newRunClient(after != nil)
			var local []sample
			for time.Now().Before(deadline) {
				i := int(idx.Add(1) - 1)
				local = append(local, rc.do(c, base, w.next(i), after))
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, lastEnd(samples).Sub(start), int(idx.Load())
}

// openLoop sends sched at its due times over clients connections. A
// dispatcher releases each request when due, into a queue sized to the
// whole schedule so it never blocks; latency counts from the due time.
func openLoop(c *http.Client, base string, sched []arrival, clients int, after afterFunc) (samples []sample, elapsed time.Duration) {
	type job struct {
		req request
		due time.Time
		lag time.Duration
	}
	jobs := make(chan job, len(sched))
	start := time.Now()
	go func() {
		for _, a := range sched {
			due := start.Add(a.at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			jobs <- job{a.req, due, time.Since(due)}
		}
		close(jobs)
	}()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := newRunClient(after != nil)
			var local []sample
			for j := range jobs {
				s := rc.do(c, base, j.req, after)
				s.lag = j.lag
				s.latency = s.end.Sub(j.due)
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, lastEnd(samples).Sub(start)
}

// lastEnd is when the last response of samples completed.
func lastEnd(samples []sample) time.Time {
	var last time.Time
	for i := range samples {
		if samples[i].end.After(last) {
			last = samples[i].end
		}
	}
	return last
}
