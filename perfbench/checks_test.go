package main

import (
	"reflect"
	"testing"

	"sessionproblem"
	"sessionproblem/internal/model"
	"sessionproblem/internal/sim"
)

// steps builds a step sequence from port numbers; model.NoPort marks a
// non-port step and model.NetworkProc's deliveries use port -1 too. Step i
// happens at time 10·(i+1).
func steps(ports ...int) []model.Step {
	out := make([]model.Step, len(ports))
	for i, p := range ports {
		out[i] = model.Step{Index: i, Proc: max(p, 0), Time: sim.Time(10 * (i + 1)), Port: p}
	}
	return out
}

func TestSessionCounter(t *testing.T) {
	const no = model.NoPort
	cases := []struct {
		name  string
		ports int
		seq   []int
		ends  []int64
	}{
		{"empty", 2, nil, nil},
		{"round robin", 2, []int{0, 1, 0, 1}, []int64{20, 40}},
		{"repeated port steps", 2, []int{0, 0, 0, 1}, []int64{40}},
		{"open session not counted", 2, []int{0, 1, 0}, []int64{20}},
		{"non-port steps ignored", 2, []int{no, 0, no, no, 1, no}, []int64{50}},
		{"greedy cut", 3, []int{0, 1, 1, 2, 0, 2, 1}, []int64{40, 70}},
		{"single port", 1, []int{0, no, 0, 0}, []int64{10, 30, 40}},
		{"out of range port ignored", 2, []int{0, 5, 1}, []int64{30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newSessionCounter(tc.ports)
			for _, s := range steps(tc.seq...) {
				c.ObserveStep(s)
			}
			if c.closed != len(tc.ends) || !reflect.DeepEqual(c.ends, tc.ends) {
				t.Fatalf("sessions %d ends %v, want %d ends %v", c.closed, c.ends, len(tc.ends), tc.ends)
			}
		})
	}
}

// TestClosedForms pins the closed forms at the default instance, worked by
// hand from PAPER.md's Table 1 (s=6, n=8, c1=2, c2=10, d1=4, d2=28).
func TestClosedForms(t *testing.T) {
	p := defaultInstance()
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"synchronous s·c2", p.syncTime(), 60},
		{"periodic MP s·cmax+d2", p.periodicMPUpper(), 88},
		// min{(5+1)·10, 28+10}·5 + 10 = 38·5 + 10
		{"semi-synchronous MP", p.semiSyncMPUpper(), 200},
		// 5·38 + 10
		{"asynchronous MP", p.asyncMPUpper(), 200},
		// u = 24, γ = 10: min{(12+3)·10+24, 38}·5 + 10
		{"sporadic MP at γ=10", p.sporadicMPUpper(10), 200},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

func TestCheckSolve(t *testing.T) {
	p := defaultInstance()
	good := &sessionproblem.Report{Finish: 60, Sessions: 6}
	for i := 1; i <= 6; i++ {
		good.Spans = append(good.Spans, sessionproblem.SessionSpan{Index: i, Start: int64(10*i - 5), End: int64(10 * i)})
	}
	if err := checkSolve(good, sessionproblem.Synchronous, sessionproblem.SharedMemory, p); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	late := *good
	late.Finish = 61
	if checkSolve(&late, sessionproblem.Synchronous, sessionproblem.SharedMemory, p) == nil {
		t.Error("finish beyond s·c2 accepted")
	}
	if checkSolve(&late, sessionproblem.Periodic, sessionproblem.SharedMemory, p) != nil {
		t.Error("SM periodic has no closed-form bound, but finish was checked")
	}
	overlap := *good
	overlap.Spans = append([]sessionproblem.SessionSpan(nil), good.Spans...)
	overlap.Spans[3].Start = overlap.Spans[2].End - 1
	if checkSolve(&overlap, sessionproblem.Periodic, sessionproblem.SharedMemory, p) == nil {
		t.Error("overlapping spans accepted")
	}
	short := *good
	short.Spans = good.Spans[:5]
	if checkSolve(&short, sessionproblem.Periodic, sessionproblem.SharedMemory, p) == nil {
		t.Error("span count below session count accepted")
	}
}
