package main

import (
	"context"
	"fmt"
	"time"

	"sessionproblem/internal/alg/gossip"
	"sessionproblem/internal/certify"
	"sessionproblem/internal/core"
	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
)

// expanderN is the expander's port count: big enough that the executor's
// variable and access-tracking arrays miss the caches on most steps.
const expanderN = 30_000

// largeInstance is one seeded large-n run: the gossip synchronizer on an
// expander drawn from the seed, under the slow schedule, as the
// repository's BenchmarkLargeN cells run it.
type largeInstance struct {
	alg  core.SMAlgorithm
	spec core.Spec
	m    timing.Model
	seed uint64
}

// largeMaxSteps lifts the executor's default step cap, which large-n runs
// exceed by design.
const largeMaxSteps = 2_000_000_000

// run is one streaming-certified run, as a user of core runs it.
func (li largeInstance) run(ctx context.Context, rs *core.RunScratch) (*core.Report, error) {
	return core.RunSMStream(ctx, li.alg, li.spec, li.m, timing.Slow, li.seed, rs, core.StreamOptions{MaxSteps: largeMaxSteps})
}

// instancesPerRound is how many seeded instances a large-n round runs:
// several, so that one run's figures do not hang on one graph.
const instancesPerRound = 3

// expanderInstances are a run's instances: graph seeds 3·seed to 3·seed+2.
func expanderInstances(seed uint64) []largeInstance {
	var out []largeInstance
	for k := uint64(0); k < instancesPerRound; k++ {
		g := seed*instancesPerRound + k
		out = append(out, largeInstance{gossip.NewSM("expander", g), core.Spec{S: 1, N: expanderN, B: 2}, timing.NewAsynchronousSM(4), g})
	}
	return out
}

// probeExpander is largen-expander's set-up: building the run's seeded
// systems, graphs included, in a fresh process.
func probeExpander(seed uint64) error {
	for _, li := range expanderInstances(seed) {
		if _, err := li.alg.BuildSM(li.spec, li.m); err != nil {
			return err
		}
	}
	return nil
}

// largeLoop runs rounds of the instances back to back for the budget (at
// least one round) and checks every run: no admissibility error, at least
// s sessions, and the same step count on every repeat of an instance.
// After each run that passed, after (if not nil) gets the instance's index
// and report. largeLoop returns the run latencies in seconds, the steps
// those runs took, and the loop's wall time.
func largeLoop(ctx context.Context, e *env, insts []largeInstance, budget time.Duration, after func(i int, rep *core.Report)) ([]float64, int, time.Duration) {
	rs := new(core.RunScratch)
	var lat []float64
	steps := make([]int, len(insts))
	total := 0
	elapsed := untilDeadline(budget, func(int) {
		for i, li := range insts {
			t0 := time.Now()
			rep, err := li.run(ctx, rs)
			d := time.Since(t0)
			check := "core.RunSMStream"
			switch {
			case err != nil:
			case rep.Sessions < li.spec.S:
				check, err = "largen.sessions", fmt.Errorf("%d sessions, want at least %d", rep.Sessions, li.spec.S)
			case steps[i] != 0 && rep.NumSteps != steps[i]:
				check, err = "largen.repeat-steps", fmt.Errorf("seed %d ran %d steps, earlier %d", li.seed, rep.NumSteps, steps[i])
			}
			if !e.res.op(check, err) {
				continue
			}
			steps[i] = rep.NumSteps
			total += rep.NumSteps
			lat = append(lat, d.Seconds())
			if after != nil {
				after(i, rep)
			}
		}
	})
	return lat, total, elapsed
}

func runExpander(e *env) error {
	ctx := context.Background()
	insts := expanderInstances(e.seed)
	if e.traced {
		return traceLarge(ctx, e, insts)
	}
	setup, err := probeSetup("largen-expander", e.seed)
	if err != nil {
		return err
	}
	lat, steps, elapsed := largeLoop(ctx, e, insts, e.seconds, nil)
	rss, err := peakRSS(0)
	if err != nil {
		return err
	}
	busy := 0.0
	for _, s := range lat {
		busy += s
	}
	r := e.res
	r.set("setup_s", setup)
	r.set("ops_per_s", float64(len(lat))/elapsed.Seconds())
	r.set("sim_steps_per_s", float64(steps)/busy)
	r.set("latency_p50_ms", median(lat)*1e3)
	r.set("peak_rss_bytes", rss)
	r.infof("largen-expander: n=%d s=%d, %d runs of %d instances, %.0f steps per run", insts[0].spec.N, insts[0].spec.S, len(lat), len(insts), float64(steps)/float64(max(len(lat), 1)))
	return nil
}

// traceLarge follows every untraced run with a traced run of the same
// instance, so that both see the same machine. A traced run builds the
// system with BuildSM and runs it with sm.RunContext, the scheduler, every
// process and the certifier wrapped in samplers, and this package's own
// session counter beside the certifier. The runtime figures are those of
// the untraced runs.
func traceLarge(ctx context.Context, e *env, insts []largeInstance) error {
	r, rec := e.res, e.rec
	rs := new(core.RunScratch)
	var traced []float64
	var stepsTraced int
	var mem runtimeDelta
	mem.start()
	lat, _, _ := largeLoop(ctx, e, insts, e.seconds, func(i int, rep *core.Report) {
		mem.stop()
		root := rec.begin("largen.op", 0)
		t0 := time.Now()
		n, err := tracedLargeRun(ctx, rec, root, insts[i], rs)
		traced = append(traced, time.Since(t0).Seconds())
		rec.end(root)
		if err == nil && n != rep.NumSteps {
			err = fmt.Errorf("traced run took %d steps, untraced %d", n, rep.NumSteps)
		}
		r.op("largen.traced", err)
		stepsTraced += n
		mem.start()
	})
	mem.report(r, len(lat))
	n := float64(len(traced))
	runSelf := rec.self("sm.run")
	r.set("alg.build_s", rec.total("alg.build").Seconds()/n)
	r.set("sm.self_s", runSelf.Seconds()/n)
	r.set("sm.self_ns_per_step", float64(runSelf.Nanoseconds())/float64(max(stepsTraced, 1)))
	r.set("timing.sched_s", rec.total("timing.sched").Seconds()/n)
	r.set("certify.observe_s", rec.total("certify.observe").Seconds()/n)
	r.set("alg.step_s", rec.total("alg.step").Seconds()/n)
	r.set("trace.overhead_ratio", median(traced)/median(lat))
	r.infof("traced: %d runs, each after its untraced run; sampling 1 call in about %d, clock %.1f ns", len(traced), sampleEvery, clockCost())
	return nil
}

// tracedLargeRun is one traced run. It returns the step count and checks
// that this package's session counter agrees with the certifier.
func tracedLargeRun(ctx context.Context, rec *recorder, root int, li largeInstance, rs *core.RunScratch) (int, error) {
	b := rec.begin("alg.build", root)
	sys, err := li.alg.BuildSM(li.spec, li.m)
	rec.end(b)
	if err != nil {
		return 0, err
	}
	ctr := certify.New(len(sys.Procs), len(sys.Ports)).CheckAdmissibility(li.m)
	mine := newSessionCounter(len(sys.Ports))
	opts := sm.Options{
		ExpectedSteps: 2*li.spec.S*li.spec.N + 128,
		WindowHint:    li.m.MaxIncrement(),
		Scratch:       &rs.SM,
		DiscardSteps:  true,
		MaxSteps:      largeMaxSteps,
	}
	_, err = wrappedSM(ctx, rec, root, sys, li.m.NewScheduler(timing.Slow, li.seed), opts,
		probe{"certify.observe", ctr}, probe{"bench.observe", mine})
	if err != nil {
		return 0, err
	}
	if err := ctr.Err(); err != nil {
		return 0, fmt.Errorf("inadmissible: %w", err)
	}
	if ctr.Sessions() < li.spec.S {
		return 0, fmt.Errorf("certified %d sessions, want at least %d", ctr.Sessions(), li.spec.S)
	}
	if mine.closed != ctr.Sessions() {
		return 0, fmt.Errorf("session counter found %d sessions, certifier %d", mine.closed, ctr.Sessions())
	}
	for i, sp := range ctr.Spans() {
		if int64(sp.End) != mine.ends[i] {
			return 0, fmt.Errorf("session %d ends at %d, certifier says %v", i+1, mine.ends[i], sp.End)
		}
	}
	return ctr.Steps(), nil
}

// probe is an observer of a wrapped run, timed under its own span name.
type probe struct {
	name string
	obs  model.StepObserver
}

// wrappedSM runs sys through sm.RunContext as an "sm.run" span under
// parent, with the scheduler, every process and every probe wrapped in
// samplers. The samplers' estimates become the span's sampled children —
// "timing.sched", "alg.step" and each probe's name — so the span's self
// time is the executor's own. The probes are the run's observers.
func wrappedSM(ctx context.Context, rec *recorder, parent int, sys *sm.System, sched sm.Scheduler, opts sm.Options, probes ...probe) (*sm.Result, error) {
	var gap sampler
	var procs procSamplers
	for i, p := range sys.Procs {
		sys.Procs[i] = timedSMProc{p, &procs}
	}
	own := make([]sampler, len(probes))
	obs := make(tee, len(probes))
	for i, p := range probes {
		obs[i] = timedObserver{p.obs, &own[i]}
	}
	opts.Observer = obs
	id := rec.begin("sm.run", parent)
	res, err := sm.RunContext(ctx, sys, timedSMSched{sched, &gap}, opts)
	rec.end(id)
	rec.sampled("timing.sched", id, gap.estimate())
	rec.sampled("alg.step", id, procs.estimate())
	for i, p := range probes {
		rec.sampled(p.name, id, own[i].estimate())
	}
	return res, err
}

type timedSMSched struct {
	inner sm.Scheduler
	s     *sampler
}

func (t timedSMSched) Gap(p int) sim.Duration {
	if !t.s.sample() {
		return t.inner.Gap(p)
	}
	t0 := time.Now()
	d := t.inner.Gap(p)
	t.s.add(t0)
	return d
}

// procSamplers time a process's three call sites apart.
type procSamplers struct{ target, step, idle sampler }

func (p *procSamplers) estimate() time.Duration {
	return p.target.estimate() + p.step.estimate() + p.idle.estimate()
}

type timedSMProc struct {
	inner sm.Process
	s     *procSamplers
}

func (t timedSMProc) Target() model.VarID {
	if !t.s.target.sample() {
		return t.inner.Target()
	}
	t0 := time.Now()
	v := t.inner.Target()
	t.s.target.add(t0)
	return v
}

func (t timedSMProc) Step(old sm.Value) sm.Value {
	if !t.s.step.sample() {
		return t.inner.Step(old)
	}
	t0 := time.Now()
	v := t.inner.Step(old)
	t.s.step.add(t0)
	return v
}

func (t timedSMProc) Idle() bool {
	if !t.s.idle.sample() {
		return t.inner.Idle()
	}
	t0 := time.Now()
	v := t.inner.Idle()
	t.s.idle.add(t0)
	return v
}

type timedObserver struct {
	inner model.StepObserver
	s     *sampler
}

func (t timedObserver) ObserveStep(st model.Step) {
	if !t.s.sample() {
		t.inner.ObserveStep(st)
		return
	}
	t0 := time.Now()
	t.inner.ObserveStep(st)
	t.s.add(t0)
}
