package gateway

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"goodenough/internal/governor"
)

// replica is one geserve backend with everything the gateway knows about
// it: a circuit breaker fed by passive signals (response classes, timeouts),
// an active probe verdict, a shed cooldown parsed from Retry-After, and the
// live in-flight count used for least-loaded picking.
type replica struct {
	idx  int
	name string // "replica0", used in metrics names and X-GE-Replica
	base string // normalized base URL, no trailing slash

	br *breaker

	inflight atomic.Int64
	// probeOK is the latest active-health verdict (GET /readyz). Replicas
	// start optimistic so the gateway serves before the first probe lands.
	probeOK atomic.Bool
	// cooldownUntil (unix nanos) deprioritizes a replica that shed with
	// 429/Retry-After: it is overloaded, not sick, so the breaker is left
	// alone but the picker avoids it until the hint expires.
	cooldownUntil atomic.Int64
	// queueDepth is the last X-GE-Queue-Depth seen from the replica — the
	// passive load signal used as the picker's tiebreak.
	queueDepth atomic.Int64
	// brownout is the last X-GE-Brownout ladder position reported by a
	// governed replica (governor.State ordinal; 0 = ok for ungoverned
	// replicas that never send the header). The quality-aware picker
	// prefers lower values.
	brownout atomic.Int32
	// headroom is the last X-GE-Headroom fraction (Float64bits). Replicas
	// start at 1 — full headroom — so ungoverned pools sort as before.
	headroom atomic.Uint64

	// Rejoin slow-start: a replica that comes back from an outage re-enters
	// the pick order at a ramped admission weight instead of full strength,
	// so a restart under overload cannot trigger a thundering herd onto a
	// cold process. rampSteps (>= 1) and rampStep (> 0, as Config's
	// defaults guarantee) are fixed at construction.
	//
	// downSince is the unix-nano time the replica was first observed down
	// (breaker opened or an active probe failed); 0 = up. rampStart is the
	// unix-nano time slow-start began; 0 = at full weight.
	rampSteps int
	rampStep  time.Duration
	downSince atomic.Int64
	rampStart atomic.Int64
}

func newReplica(idx int, base string, breakerFailures int, breakerOpenFor time.Duration,
	rampSteps int, rampStep time.Duration, onTransition func(from, to breakerState)) (*replica, error) {
	base = strings.TrimRight(base, "/")
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("gateway: replica %d: %q is not an absolute URL", idx, base)
	}
	r := &replica{
		idx:       idx,
		name:      fmt.Sprintf("replica%d", idx),
		base:      base,
		br:        newBreaker(breakerFailures, breakerOpenFor, onTransition),
		rampSteps: rampSteps,
		rampStep:  rampStep,
	}
	r.probeOK.Store(true)
	r.headroom.Store(math.Float64bits(1))
	return r, nil
}

// markDown notes that the replica went down (breaker opened or a probe
// failed). The first observation starts the outage clock; a relapse in the
// middle of a slow-start ramp also cancels the ramp, so the next rejoin
// starts from the bottom again.
func (r *replica) markDown(now time.Time) {
	r.rampStart.Store(0)
	r.downSince.CompareAndSwap(0, now.UnixNano())
}

// rejoin ends an outage: the replica is back (breaker closed through its
// half-open trial, or an active probe succeeded again). Returns the outage
// duration and true exactly once per outage, so callers can emit the
// rejoin event and recovery-time histogram sample without double counting.
// The slow-start ramp begins here.
func (r *replica) rejoin(now time.Time) (time.Duration, bool) {
	down := r.downSince.Swap(0)
	if down == 0 {
		return 0, false
	}
	r.rampStart.Store(now.UnixNano())
	return time.Duration(now.UnixNano() - down), true
}

// slowStart returns the replica's current admission weight in (0, 1] and
// the concurrent in-flight cap the picker enforces while the ramp runs.
// Step k of an n-step ramp carries weight 2^(k-n) and cap 2^k: a 3-step
// ramp admits 1, then 2, then 4 concurrent requests at weights 1/8, 1/4,
// 1/2 before returning to full strength. Completing the ramp clears the
// state; that final transition is reported once via done so the caller can
// count it.
func (r *replica) slowStart(now time.Time) (weight float64, limit int64, done bool) {
	start := r.rampStart.Load()
	if start == 0 {
		return 1, math.MaxInt64, false
	}
	step := int64(now.UnixNano()-start) / int64(r.rampStep)
	if step >= int64(r.rampSteps) {
		// Ramp complete; the CAS loses harmlessly if markDown reset it.
		return 1, math.MaxInt64, r.rampStart.CompareAndSwap(start, 0)
	}
	return math.Ldexp(1, int(step)-r.rampSteps), 1 << step, false
}

// weightNow is the read-only view of the slow-start weight for replicaz
// and tests: no completion side effects, so it cannot swallow the
// slowstart_done event the pick path emits.
func (r *replica) weightNow(now time.Time) float64 {
	start := r.rampStart.Load()
	if start == 0 {
		return 1
	}
	step := int64(now.UnixNano()-start) / int64(r.rampStep)
	if step >= int64(r.rampSteps) {
		return 1
	}
	return math.Ldexp(1, int(step)-r.rampSteps)
}

// coolingDown reports whether the replica is inside a Retry-After window.
func (r *replica) coolingDown(now time.Time) bool {
	return now.UnixNano() < r.cooldownUntil.Load()
}

// setCooldown parses a Retry-After header value (whole seconds) and parks
// the replica for that long, clamped to maxCooldown so an absurd or
// malicious header cannot black-hole a healthy replica.
func (r *replica) setCooldown(header string, now time.Time, maxCooldown time.Duration) {
	d := maxCooldown
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
		if d > maxCooldown {
			d = maxCooldown
		}
	}
	r.cooldownUntil.Store(now.Add(d).UnixNano())
}

// notePassive records the passive-health headers of any replica response:
// queue depth, and — from governed replicas — the brownout ladder position
// and budget headroom the quality-aware picker sorts on.
func (r *replica) notePassive(h http.Header) {
	if v := h.Get("X-GE-Queue-Depth"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			r.queueDepth.Store(n)
		}
	}
	if v := h.Get("X-GE-Brownout"); v != "" {
		if st, ok := governor.ParseState(v); ok {
			r.brownout.Store(int32(st))
		}
	}
	if v := h.Get("X-GE-Headroom"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f >= 0 && f <= 1 {
			r.headroom.Store(math.Float64bits(f))
		}
	}
}

// brownoutState returns the last reported ladder position.
func (r *replica) brownoutState() governor.State {
	return governor.State(r.brownout.Load())
}

// headroomFrac returns the last reported budget headroom in [0, 1].
func (r *replica) headroomFrac() float64 {
	return math.Float64frombits(r.headroom.Load())
}

// eligible reports whether the picker should consider this replica in the
// preferred pass: actively healthy, not cooling down. Breaker admission is
// checked separately because Allow has side effects (half-open probes).
func (r *replica) eligible(now time.Time) bool {
	return r.probeOK.Load() && !r.coolingDown(now)
}

// probe runs one active health check against /readyz. Governed replicas
// stamp X-GE-Brownout / X-GE-Headroom on every readyz answer — including
// the 503 a shedding replica returns — so the probe feeds the passive
// signals even when the verdict is not-ready.
func (r *replica) probe(ctx context.Context, client *http.Client, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	r.notePassive(resp.Header)
	return resp.StatusCode == http.StatusOK
}
