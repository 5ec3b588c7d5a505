package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The catalog every workload runs against: catalog.SyntheticAlgoHeavy
// with 8 UAVs, 16 computes and 16 algorithms, i.e. 2048 buildable
// candidates, each UAV carrying a calibrated acceleration table.
const (
	nUAVs     = 8
	nComputes = 16
	nAlgos    = 16
)

func uavName(i int) string     { return fmt.Sprintf("synth-uav-%03d", i) }
func computeName(i int) string { return fmt.Sprintf("synth-soc-%03d", i) }
func algoName(i int) string    { return fmt.Sprintf("synth-net-%03d", i) }

// request is one generated HTTP GET. url — the path plus the
// canonically encoded query — is its identity: two requests with the
// same url must be answered with the same bytes.
type request struct {
	path  string
	query url.Values
	url   string
	class string
}

func newRequest(class, path string, q url.Values) request {
	return request{path: path, query: q, url: path + "?" + q.Encode(), class: class}
}

// arrival is one open-loop request and when it is due, counted from the
// start of the timed window.
type arrival struct {
	at  time.Duration
	req request
}

// workload is one traffic mix. A closed loop (rate == 0) runs clients
// connections that each send next(i) for the next unclaimed i as soon
// as their previous response is complete; an open loop sends schedule
// at its due times over clients connections, whatever the server does.
type workload struct {
	name    string
	clients int
	rate    float64
	// store makes the server run with a fresh -store-dir.
	store bool
	// warmup is sent once, in order, during set-up.
	warmup []request
	// known lists the requests whose reference bytes are computed
	// before timing; anything else drawn is referenced after the window.
	known    []request
	next     func(i int) request
	schedule []arrival
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"explore-stream", "explore-mission", "interactive-mix"}

// mixRate is interactive-mix's arrival rate (requests per second), well
// below the mix's closed-loop capacity on two cores so that a run
// measures service time, not a growing backlog.
const mixRate = 200

// newWorkload builds the named workload from seed. seconds sizes the
// open-loop schedule.
func newWorkload(name string, seed int64, seconds float64) (*workload, error) {
	switch name {
	case "explore-stream":
		return exploreStream(seed), nil
	case "explore-mission":
		return exploreMission(seed), nil
	case "interactive-mix":
		return interactiveMix(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

// mix64 is a splitmix64 finaliser over (a, b): request i of a closed
// loop is a pure function of (seed, i), whichever client claims it.
func mix64(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E5B
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// exploreStream: two closed-loop clients streaming the whole 2048-
// candidate space, with min_velocity_ms drawn from a small seeded pool
// below the catalog's lowest safe velocity (0.96 m/s), so every line
// survives whatever the seed. Every request re-analyzes the same
// configurations, so the analysis cache is always warm.
func exploreStream(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]request, 4)
	for i := range pool {
		v := 0.05 + 0.2*rng.Float64()
		pool[i] = newRequest("stream", "/explore", url.Values{"min_velocity_ms": {strconv.FormatFloat(v, 'f', 3, 64)}})
	}
	return &workload{
		name:    "explore-stream",
		clients: 2,
		warmup:  pool,
		known:   pool,
		next: func(i int) request {
			return pool[mix64(uint64(seed), uint64(i))%uint64(len(pool))]
		},
	}
}

// missionSlice is explore-mission's 256-candidate space: 4 UAVs × 8
// computes × 8 algorithms.
func missionSlice() url.Values {
	names := func(n int, name func(int) string) string {
		s := make([]string, n)
		for i := range s {
			s[i] = name(i)
		}
		return strings.Join(s, ",")
	}
	return url.Values{
		"uav":       {names(4, uavName)},
		"compute":   {names(8, computeName)},
		"algorithm": {names(8, algoName)},
		"objective": {"mission.stochastic"},
	}
}

// missionRequest is explore-mission's i-th request: a fresh Monte-Carlo
// seed each time, so no scored analysis is ever shared, alternating a
// top-5 ranking with a velocity/power Pareto front.
func missionRequest(seed int64, i uint64) request {
	q := missionSlice()
	q.Set("seed", strconv.FormatUint(mix64(uint64(seed), i)>>2+1, 10))
	if i%2 == 0 {
		q.Set("top", "5")
	} else {
		q.Set("pareto", "velocity,power")
	}
	return newRequest("mission", "/explore", q)
}

// exploreMission: one closed-loop client running mission.stochastic
// over the 256-candidate slice. Engine-bound: the response is a few
// lines, so encoding and flushing are negligible.
func exploreMission(seed int64) *workload {
	// Warm-up and timed requests draw seeds from disjoint index ranges.
	const warmBase = 1 << 40
	w := &workload{
		name:    "explore-mission",
		clients: 1,
		warmup:  []request{missionRequest(seed, warmBase), missionRequest(seed, warmBase+1)},
		next:    func(i int) request { return missionRequest(seed, uint64(i)) },
	}
	for i := 0; i < 8; i++ {
		w.known = append(w.known, w.next(i))
	}
	return w
}

// Request shapes of interactive-mix.
func sliceExplore(class string, uav int, extra url.Values) request {
	q := url.Values{"uav": {uavName(uav)}}
	for k, v := range extra {
		q[k] = v
	}
	return newRequest(class, "/explore", q)
}

func gridRequest(class string, uav, compute, algo int, x string, xhi float64) request {
	return newRequest(class, "/grid.svg", url.Values{
		"uav": {uavName(uav)}, "compute": {computeName(compute)}, "algorithm": {algoName(algo)},
		"x": {x}, "xlo": {"1"}, "xhi": {strconv.FormatFloat(xhi, 'g', -1, 64)},
		"y": {"compute"}, "ylo": {"1"}, "yhi": {"120"},
		"nx": {"40"}, "ny": {"30"},
	})
}

// interactiveMix: independent users on a seeded Poisson schedule at
// mixRate, against a server with a persistent store that set-up has
// populated. Most requests never reach the engine: exact store hits,
// constraint-tightened streams filtered from a stored superset, and
// page knob tweaks through the analysis cache; a minority of fresh keys
// run the engine and write a new artifact with fsync.
func interactiveMix(seed int64, seconds float64) *workload {
	rng := rand.New(rand.NewSource(seed))
	var hits, filtered, page []request
	for k := 0; k < 4; k++ {
		hits = append(hits, sliceExplore("hit", k, nil))
	}
	hits = append(hits,
		newRequest("hit", "/explore", url.Values{"top": {"10"}, "rank": {"velocity"}}),
		newRequest("hit", "/explore", url.Values{"top": {"10"}, "rank": {"power"}}),
		newRequest("hit", "/explore", url.Values{"pareto": {"velocity,power"}}),
		newRequest("hit", "/explore", url.Values{"pareto": {"power,payload"}}),
		gridRequest("hit", 1, 3, 5, "payload", 600),
		gridRequest("hit", 6, 9, 2, "range", 12),
	)
	// The pools are the same for every seed, so that seeds differ in
	// arrival times, order and fresh keys, not in the population of
	// work: a seed must not move the figures more than the code does.
	for k := 0; k < 4; k++ {
		filtered = append(filtered,
			sliceExplore("filtered", k, url.Values{"min_velocity_ms": {[]string{"1.5", "2.5", "4", "6"}[k]}}),
			sliceExplore("filtered", k, url.Values{"max_power_w": {[]string{"8", "12", "16", "20"}[k]}}))
	}
	tdps := []string{"", "4", "8", "12"}
	for j := 0; j < 12; j++ {
		q := url.Values{
			"uav":       {uavName(j % nUAVs)},
			"compute":   {computeName(5 * j % nComputes)},
			"algorithm": {algoName(7 * j % nAlgos)},
		}
		if t := tdps[j%len(tdps)]; t != "" {
			q.Set("tdp_w", t)
		}
		page = append(page, newRequest("page", "/api/analyze", q), newRequest("page", "/plot.svg", q))
	}

	w := &workload{name: "interactive-mix", clients: 2, rate: mixRate, store: true}
	// Supersets (the per-UAV streams) are stored before the filtered
	// requests that are answered from them.
	w.warmup = append(append(append(w.warmup, hits...), filtered...), page...)
	w.known = w.warmup
	fresh := 0
	for t := 0.0; ; {
		t += rng.ExpFloat64() / mixRate
		if t >= seconds {
			break
		}
		var r request
		switch u := rng.Float64(); {
		case u < 0.45:
			r = hits[rng.Intn(len(hits))]
		case u < 0.65:
			r = filtered[rng.Intn(len(filtered))]
		case u < 0.75:
			// A fresh key: a grid over new bounds, or a new constrained
			// top-K over the whole space.
			fresh++
			if fresh%2 == 0 {
				r = gridRequest("miss", 2, 5, 7, "payload", 300+400*rng.Float64())
			} else {
				r = newRequest("miss", "/explore", url.Values{
					"top": {"10"}, "rank": {"velocity"},
					"max_payload_g": {strconv.FormatFloat(300+500*rng.Float64(), 'g', -1, 64)},
				})
			}
			w.known = append(w.known, r)
		default:
			r = page[rng.Intn(len(page))]
		}
		w.schedule = append(w.schedule, arrival{at: time.Duration(t * float64(time.Second)), req: r})
	}
	return w
}
