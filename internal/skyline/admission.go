package skyline

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the server's robustness layer: a deadline-aware fair
// admission queue for the engine-driven endpoints, per-client
// token-bucket quotas, the EWMA service-time estimate behind
// Retry-After, and the saturation (graceful-degradation) signal.
//
// The previous generation shed instantly: a full semaphore answered
// 429 with a hardcoded Retry-After of one second. Bursty multi-user
// traffic is better served by borrowing a little time instead of a
// round trip — a request that cannot get a slot now waits in a
// bounded FIFO queue until a slot frees or its deadline expires.
// Slots are granted strictly in arrival order, so no request can be
// starved by later arrivals; a waiter whose deadline expires first is
// told 503 (its deadline makes retrying at the client's own pace the
// only honest answer), and a waiter whose client disconnects is
// removed without a response. Only when the queue itself is full —
// or the client is over its quota while the server is saturated —
// does the server shed, and then Retry-After is derived from what the
// queue is actually doing: observed depth × the EWMA of recent
// service times ÷ slots, not a constant.

// shed reason labels — the values of the shed_total{reason=...}
// metric and the admission log vocabulary.
const (
	shedReasonQueueFull = "queue_full"
	shedReasonOverQuota = "over_quota"
	shedReasonDeadline  = "deadline"
)

// waiter is one queued admission request, linked into the admitter's
// FIFO. grant is closed with granted=true (under the admitter lock)
// when a slot transfers to this waiter.
type waiter struct {
	grant      chan struct{}
	prev, next *waiter
	granted    bool
	enqueued   time.Time
}

// admitResult is the outcome of one admission attempt. Exactly one of
// release (admitted — the caller must call it when done) and status
// is set; status 0 with nil release means the client disconnected
// while queued and no response should be written.
type admitResult struct {
	release    func()
	status     int    // http.StatusTooManyRequests or StatusServiceUnavailable
	reason     string // shedReason* label
	message    string // response body text
	retryAfter int    // seconds, already computed from queue state
}

// admitter is the deadline-aware fair admission queue. The zero value
// is not useful; build with newAdmitter. capacity == 0 means
// unlimited: admission always succeeds immediately and only the
// bookkeeping (active count, service-time EWMA) runs.
type admitter struct {
	mu         sync.Mutex
	capacity   int // concurrent slots; 0 = unlimited
	free       int // unheld slots; free > 0 implies an empty queue
	queueCap   int // waiter bound; 0 = no queue (legacy instant shed)
	highWater  int // queued depth at which degradation engages
	head, tail *waiter

	// ewmaService is the exponentially weighted moving average of
	// recent slot-holding times, seconds (guarded by mu). It seeds the
	// Retry-After estimate; zero means nothing has completed yet.
	ewmaService float64

	quotas *buckets // nil = no per-client quotas

	// Gauges and counters are atomics so /healthz and /metrics read
	// them without taking the admission lock.
	depth         atomic.Int64 // current queued waiters
	active        atomic.Int64 // slots currently held
	granted       atomic.Uint64
	queuedGrants  atomic.Uint64 // grants that waited in the queue first
	shedQueueFull atomic.Uint64
	shedOverQuota atomic.Uint64
	shedDeadline  atomic.Uint64 // deadline expiries, queued or mid-flight
	degradedTotal atomic.Uint64

	queueWait sampler // seconds spent queued, successful grants only
}

// ewmaAlpha weights the newest service-time observation: high enough
// to track a shift in traffic within a few requests, low enough that
// one slow outlier does not triple every Retry-After.
const ewmaAlpha = 0.3

// retryAfterCap bounds the advertised backoff: beyond a minute the
// estimate is telling clients the service is down, which is not what
// a saturated-but-draining queue means.
const retryAfterCap = 60

func newAdmitter(capacity, queueCap int, quotas *buckets) *admitter {
	if capacity <= 0 {
		capacity, queueCap = 0, 0
	}
	if queueCap < 0 {
		queueCap = 0
	}
	return &admitter{
		capacity:  capacity,
		free:      capacity,
		queueCap:  queueCap,
		highWater: (queueCap + 1) / 2,
		quotas:    quotas,
	}
}

// admit attempts to reserve a slot for client, waiting in the FIFO
// queue until ctx expires. The caller owns ctx's deadline (the
// request timeout); admit distinguishes deadline expiry (503) from
// client disconnect (no response).
func (a *admitter) admit(ctx context.Context, client string) admitResult {
	if a.capacity == 0 {
		return a.grant()
	}
	inQuota := a.quotas.allow(client)
	a.mu.Lock()
	if a.free > 0 {
		// Idle capacity is never wasted on quota accounting: an
		// over-quota client may use a slot nobody else wants.
		a.free--
		a.mu.Unlock()
		return a.grant()
	}
	// Saturated. Quota violations shed first: the queue is reserved
	// for clients inside their budget, so one hot client cannot fill
	// it and starve the rest.
	if !inQuota {
		retry := a.retryAfterLocked()
		a.mu.Unlock()
		a.shedOverQuota.Add(1)
		return admitResult{
			status:     http.StatusTooManyRequests,
			reason:     shedReasonOverQuota,
			message:    "client is over its request quota; retry shortly",
			retryAfter: retry,
		}
	}
	if int(a.depth.Load()) >= a.queueCap {
		retry := a.retryAfterLocked()
		a.mu.Unlock()
		a.shedQueueFull.Add(1)
		return admitResult{
			status:     http.StatusTooManyRequests,
			reason:     shedReasonQueueFull,
			message:    "server is at its exploration capacity and the wait queue is full; retry shortly",
			retryAfter: retry,
		}
	}
	w := &waiter{grant: make(chan struct{}), enqueued: time.Now()}
	a.enqueueLocked(w)
	a.depth.Add(1)
	a.mu.Unlock()

	select {
	case <-w.grant:
		a.queueWait.observe(time.Since(w.enqueued).Seconds())
		a.queuedGrants.Add(1)
		return a.grant()
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: we hold a slot the
			// request will never use — pass it straight on.
			a.passOnLocked()
			a.mu.Unlock()
		} else {
			a.removeLocked(w)
			a.depth.Add(-1)
			a.mu.Unlock()
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			a.shedDeadline.Add(1)
			return admitResult{
				status:     http.StatusServiceUnavailable,
				reason:     shedReasonDeadline,
				message:    "request deadline expired before an exploration slot freed",
				retryAfter: a.retryAfter(),
			}
		}
		return admitResult{} // client gone; write nothing
	}
}

// grant finalizes a successful admission: the caller already holds a
// slot (or capacity is unlimited). The returned admitResult carries
// the release closure, which returns the slot and feeds the
// service-time EWMA.
func (a *admitter) grant() admitResult {
	a.granted.Add(1)
	a.active.Add(1)
	start := time.Now()
	var once sync.Once
	return admitResult{release: func() {
		once.Do(func() {
			a.active.Add(-1)
			held := time.Since(start).Seconds()
			if a.capacity == 0 {
				a.mu.Lock()
				a.recordServiceLocked(held)
				a.mu.Unlock()
				return
			}
			a.mu.Lock()
			a.recordServiceLocked(held)
			a.passOnLocked()
			a.mu.Unlock()
		})
	}}
}

// passOnLocked hands a freed slot to the queue head, or back to the
// free pool when nobody is waiting. Callers hold mu.
func (a *admitter) passOnLocked() {
	if w := a.head; w != nil {
		a.removeLocked(w)
		a.depth.Add(-1)
		w.granted = true
		// Grant handoff: admit() makes the channel, but ownership moves
		// to the queue with the waiter; the slot holder signals by
		// closing under mu, and granted=true keeps the close unique.
		close(w.grant) //reprolint:allow chandiscipline — slot holder owns queued grants; close is unique under mu via granted
		return
	}
	a.free++
}

// recordServiceLocked folds one completed request's slot-holding time
// (seconds) into the EWMA. Callers hold mu.
func (a *admitter) recordServiceLocked(held float64) {
	if a.ewmaService == 0 {
		a.ewmaService = held
		return
	}
	a.ewmaService = ewmaAlpha*held + (1-ewmaAlpha)*a.ewmaService
}

func (a *admitter) enqueueLocked(w *waiter) {
	w.prev = a.tail
	if a.tail != nil {
		a.tail.next = w
	} else {
		a.head = w
	}
	a.tail = w
}

func (a *admitter) removeLocked(w *waiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		a.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		a.tail = w.prev
	}
	w.prev, w.next = nil, nil
}

// retryAfterLocked estimates how long until a shed client could be
// admitted: the queue ahead of it (depth + itself) times the EWMA of
// recent service times, spread over the slot count. Before any
// request has completed the estimate falls back to one second — the
// old constant, now a floor instead of the whole answer. Callers hold
// mu.
func (a *admitter) retryAfterLocked() int {
	svc := a.ewmaService
	slots := a.capacity
	if slots < 1 {
		slots = 1
	}
	est := float64(a.depth.Load()+1) * svc / float64(slots)
	sec := int(math.Ceil(est))
	if sec < 1 {
		sec = 1
	}
	if sec > retryAfterCap {
		sec = retryAfterCap
	}
	return sec
}

// retryAfter is retryAfterLocked for callers not holding mu.
func (a *admitter) retryAfter() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked()
}

// saturated reports whether the queue has crossed its high-water mark
// — the graceful-degradation signal. A server with no queue (or no
// admission limit) never degrades.
func (a *admitter) saturated() bool {
	if a == nil || a.capacity == 0 || a.queueCap == 0 {
		return false
	}
	return int(a.depth.Load()) >= a.highWater
}

// sheds totals every rejection — the /healthz "rejected" gauge.
func (a *admitter) sheds() uint64 {
	return a.shedQueueFull.Load() + a.shedOverQuota.Load() + a.shedDeadline.Load()
}

// clientKey identifies the requester for quota accounting: the
// X-API-Key header when present (one key per integration), else the
// remote host — every connection from one address shares a bucket.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// buckets is the per-client token-bucket table: each client refills at
// rate tokens/second up to burst, and every admission attempt spends
// one token. A nil *buckets allows everything (quotas off).
type buckets struct {
	mu    sync.Mutex
	m     map[string]*bucket
	rate  float64
	burst float64
	// maxClients bounds the table: past it, fully refilled (idle)
	// buckets are swept, and if every client is hot the newest
	// requester is treated as in-quota without a bucket — bounded
	// memory beats perfect accounting under an address-spray attack.
	maxClients int
}

type bucket struct {
	tokens float64
	last   time.Time
}

// defaultMaxClients bounds the quota table (~100 bytes per client).
const defaultMaxClients = 8192

func newBuckets(rate float64) *buckets {
	if rate <= 0 {
		return nil
	}
	return &buckets{
		m:          make(map[string]*bucket),
		rate:       rate,
		burst:      math.Max(1, 2*rate),
		maxClients: defaultMaxClients,
	}
}

// allow spends one of client's tokens, reporting false when the
// bucket is empty (the client is over quota). A nil receiver allows
// everything.
func (b *buckets) allow(client string) bool {
	if b == nil {
		return true
	}
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	bk := b.m[client]
	if bk == nil {
		if len(b.m) >= b.maxClients {
			b.sweepLocked(now)
		}
		if len(b.m) >= b.maxClients {
			// Table still full of hot clients: admit without a bucket
			// rather than grow without bound.
			return true
		}
		bk = &bucket{tokens: b.burst, last: now}
		b.m[client] = bk
	}
	bk.tokens = math.Min(b.burst, bk.tokens+now.Sub(bk.last).Seconds()*b.rate)
	bk.last = now
	if bk.tokens >= 1 {
		bk.tokens--
		return true
	}
	return false
}

// sweepLocked drops buckets indistinguishable from absent ones — a
// client whose tokens have fully refilled would get a fresh full
// bucket anyway. Callers hold mu.
func (b *buckets) sweepLocked(now time.Time) {
	//reprolint:ordered pure filtering sweep; nothing observes the visit order and deletions commute
	for k, bk := range b.m {
		if bk.tokens+now.Sub(bk.last).Seconds()*b.rate >= b.burst {
			delete(b.m, k)
		}
	}
}

// clients reports the quota table size (a /healthz gauge).
func (b *buckets) clients() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}
