// Package verify provides a runtime invariant checker for scheduling
// policies: a Policy decorator that, after every scheduling decision,
// asserts the structural properties the model guarantees on paper —
//
//   - no migration: a job bound to a core never moves (paper §II-B) —
//     with one audited exception: a job orphaned by a core failure may be
//     re-bound exactly once per recorded requeue (job.Requeues is the
//     audit trail written by the runner at failure instants);
//   - EDF order: every core's plan is sorted by deadline;
//   - power budget: the instantaneous dynamic power implied by the
//     cores' current speeds never exceeds the *current* cap (the nominal
//     budget H, or the injected facility-level cap while one is active);
//   - dead core: no job is ever planned on a failed core;
//   - target sanity: Processed ≤ Target ≤ Demand for every planned job;
//   - speed sanity: no negative speeds, and no speed above what burning
//     the entire current budget on one core could sustain (stuck-DVFS
//     cores are exempt from the cap — the hardware, not the scheduler,
//     pinned them);
//   - monotone time: scheduling triggers arrive in time order;
//   - settled: the policy sees the machine as of the trigger — the machine
//     clock equals the trigger time and no waiting job is past its
//     deadline (the driver advances a machine lazily, so this is the
//     contract that makes a decision read current state).
//
// Integration tests wrap each policy in a Checker and run full
// simulations; any violation is recorded with a description. The checker
// is also useful when developing new policies against the sched.Policy
// interface.
package verify

import (
	"fmt"

	"goodenough/internal/sched"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Time is the simulation time of the offending trigger.
	Time float64
	// Rule names the violated invariant.
	Rule string
	// Detail describes the breach.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f %s: %s", v.Time, v.Rule, v.Detail)
}

// Checker wraps a sched.Policy and audits every scheduling decision.
type Checker struct {
	inner sched.Policy

	violations []Violation
	// jobCore remembers each job's latest sanctioned binding together
	// with the requeue count at which it was learned, so failure-driven
	// re-bindings can be distinguished from illegal migrations.
	jobCore  map[int]binding
	lastTime float64
	timeSet  bool
	// Limit caps the number of recorded violations (0 = default 100) so a
	// systematic breach does not balloon memory.
	Limit int
}

// binding is one sanctioned job-to-core assignment: the core, and the
// job's requeue count when the binding was observed. A later binding to a
// different core is legal only if the requeue count has grown since —
// i.e. a core failure orphaned the job in between.
type binding struct {
	core     int
	requeues int
}

// Wrap decorates a policy with invariant checking.
func Wrap(p sched.Policy) *Checker {
	return &Checker{inner: p, jobCore: make(map[int]binding)}
}

// Name implements sched.Policy.
func (c *Checker) Name() string { return c.inner.Name() }

// Reset implements sched.Policy.
func (c *Checker) Reset() {
	c.inner.Reset()
	c.violations = nil
	c.jobCore = make(map[int]binding)
	c.timeSet = false
}

// Violations returns everything observed so far.
func (c *Checker) Violations() []Violation { return c.violations }

// Ok reports whether no invariant was breached.
func (c *Checker) Ok() bool { return len(c.violations) == 0 }

func (c *Checker) report(t float64, rule, format string, args ...any) {
	limit := c.Limit
	if limit == 0 {
		limit = 100
	}
	if len(c.violations) >= limit {
		return
	}
	c.violations = append(c.violations, Violation{
		Time: t, Rule: rule, Detail: fmt.Sprintf(format, args...),
	})
}

// Schedule implements sched.Policy: delegate, then audit.
func (c *Checker) Schedule(ctx *sched.Context) {
	if c.timeSet && ctx.Now < c.lastTime-1e-12 {
		c.report(ctx.Now, "monotone-time", "trigger at %v after %v", ctx.Now, c.lastTime)
	}
	c.lastTime = ctx.Now
	c.timeSet = true
	if t := ctx.Server.Now(); t != ctx.Now {
		c.report(ctx.Now, "settled", "machine clock at %v, trigger at %v", t, ctx.Now)
	}
	for _, j := range ctx.Waiting.Peek() {
		if j.Expired(ctx.Now) {
			c.report(ctx.Now, "settled", "waiting job %d past its deadline %v", j.ID, j.Deadline)
		}
	}

	c.inner.Schedule(ctx)

	cfg := ctx.Cfg
	// The budget to audit against is the machine's current cap — a
	// facility-level capping fault may have shrunk it below the nominal
	// configuration value.
	budget := ctx.Budget
	if budget <= 0 {
		budget = cfg.PowerBudget
	}
	instPower := 0.0
	for _, core := range ctx.Server.Cores {
		maxSpeed := cfg.ModelFor(core.Index).Speed(budget)
		queue := core.Queue()
		// No job may be planned on a dead core.
		if !core.Healthy() && len(queue) > 0 {
			c.report(ctx.Now, "dead-core",
				"core %d is failed but plans %d jobs", core.Index, len(queue))
		}
		prevDeadline := -1.0
		for _, j := range queue {
			// No migration — except the audited failure-requeue path: a
			// re-binding is sanctioned only when the job's requeue
			// counter advanced since the previous binding was learned.
			if prev, seen := c.jobCore[j.ID]; seen && prev.core != j.Core {
				if j.Requeues > prev.requeues {
					c.jobCore[j.ID] = binding{core: j.Core, requeues: j.Requeues}
				} else {
					c.report(ctx.Now, "no-migration",
						"job %d moved from core %d to core %d without an intervening core failure",
						j.ID, prev.core, j.Core)
				}
			} else if !seen {
				c.jobCore[j.ID] = binding{core: j.Core, requeues: j.Requeues}
			}
			if j.Core != core.Index {
				c.report(ctx.Now, "binding",
					"job %d bound to core %d but planned on core %d", j.ID, j.Core, core.Index)
			}
			// EDF order within the plan.
			if j.Deadline < prevDeadline-1e-12 {
				c.report(ctx.Now, "edf-order",
					"core %d plans deadline %v after %v", core.Index, j.Deadline, prevDeadline)
			}
			prevDeadline = j.Deadline
			// Target sanity.
			if j.Target < j.Processed-1e-9 || j.Target > j.Demand+1e-9 {
				c.report(ctx.Now, "target-range",
					"job %d target %v outside [processed %v, demand %v]",
					j.ID, j.Target, j.Processed, j.Demand)
			}
		}
		// Speed sanity and instantaneous power. A stuck-DVFS core is
		// exempt from the budget-implied speed cap (the hardware pinned
		// it), but its draw still counts toward the budget check.
		s := core.CurrentSpeed()
		if s < 0 {
			c.report(ctx.Now, "speed-negative", "core %d speed %v", core.Index, s)
		}
		if s > maxSpeed*(1+1e-9) && core.StuckSpeed() <= 0 {
			c.report(ctx.Now, "speed-cap",
				"core %d speed %v exceeds whole-budget speed %v", core.Index, s, maxSpeed)
		}
		instPower += cfg.ModelFor(core.Index).Power(s)
	}
	if instPower > budget*(1+1e-6) {
		c.report(ctx.Now, "power-budget",
			"instantaneous power %v W exceeds current cap %v W", instPower, budget)
	}
}
