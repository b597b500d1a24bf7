package main

import (
	"fmt"

	"sessionproblem"
	"sessionproblem/internal/model"
)

// instance holds the parameters of one (s, n)-session problem instance, as
// the facade resolves them: cmin = c1 and cmax = c2.
type instance struct {
	S, N           int
	C1, C2, D1, D2 int64
}

// defaultInstance is the library default (sessiontable, the facade and
// the daemon): s=6, n=8, c1=2, c2=10, d1=4, d2=28.
func defaultInstance() instance { return instance{S: 6, N: 8, C1: 2, C2: 10, D1: 4, D2: 28} }

// The closed-form Table-1 cells of the paper, evaluated independently of
// the program's own bound code. The shared-memory upper bounds carry an
// O(log_b n) term without a constant, and the lower bounds only assert that
// some slow computation exists, so neither is checked here.

// syncTime is the synchronous cell, L = U = s·c2, in both systems.
func (p instance) syncTime() int64 { return int64(p.S) * p.C2 }

// periodicMPUpper is s·cmax + d2.
func (p instance) periodicMPUpper() int64 { return int64(p.S)*p.C2 + p.D2 }

// semiSyncMPUpper is min{(⌊c2/c1⌋+1)·c2, d2+c2}·(s−1) + c2.
func (p instance) semiSyncMPUpper() int64 {
	return min((p.C2/p.C1+1)*p.C2, p.D2+p.C2)*int64(p.S-1) + p.C2
}

// asyncMPUpper is (s−1)·(d2+c2) + c2.
func (p instance) asyncMPUpper() int64 { return int64(p.S-1)*(p.D2+p.C2) + p.C2 }

// sporadicMPUpper is min{(⌊u/c1⌋+3)·γ+u, d2+γ}·(s−1) + γ with u = d2−d1,
// evaluated at a computation's own γ.
func (p instance) sporadicMPUpper(gamma int64) int64 {
	u := p.D2 - p.D1
	return min((u/p.C1+3)*gamma+u, p.D2+gamma)*int64(p.S-1) + gamma
}

// mpUpper returns the closed-form message-passing upper bound of a Table-1
// row, if the paper gives one without a per-computation parameter.
func (p instance) mpUpper(row string) (int64, bool) {
	switch row {
	case "synchronous":
		return p.syncTime(), true
	case "periodic":
		return p.periodicMPUpper(), true
	case "semi-synchronous":
		return p.semiSyncMPUpper(), true
	case "asynchronous":
		return p.asyncMPUpper(), true
	}
	return 0, false
}

// checkTable checks a regenerated Table 1: no cell reads VIOLATION, every
// cell ran runs (strategies × seeds) computations, the synchronous cells
// measure exactly s·c2, and every message-passing cell with a closed-form
// upper bound states that bound and stays within it.
func checkTable(cells []sessionproblem.TableCell, p instance, runs int) error {
	if len(cells) != 9 {
		return fmt.Errorf("table has %d cells, want 9", len(cells))
	}
	for _, c := range cells {
		id := c.Model + "/" + c.Comm
		if c.Verdict == "VIOLATION" {
			return fmt.Errorf("%s: verdict VIOLATION", id)
		}
		if c.Runs != runs {
			return fmt.Errorf("%s: %d runs, want %d", id, c.Runs, runs)
		}
		if c.Model == "synchronous" {
			want := float64(p.syncTime())
			if c.MeasuredMin != want || c.MeasuredMax != want {
				return fmt.Errorf("%s: measured [%v, %v], want exactly s·c2 = %v", id, c.MeasuredMin, c.MeasuredMax, want)
			}
		}
		if c.Comm != "MP" {
			continue
		}
		if u, ok := p.mpUpper(c.Model); ok {
			if c.PaperUpper != float64(u) {
				return fmt.Errorf("%s: paper upper %v, closed form gives %d", id, c.PaperUpper, u)
			}
			if c.MeasuredMax > float64(u) {
				return fmt.Errorf("%s: measured max %v exceeds closed-form upper bound %d", id, c.MeasuredMax, u)
			}
		}
	}
	return nil
}

// checkSolve checks one verified run: at least s sessions, one span per
// session, spans numbered, ordered and disjoint, and the finish time within
// the closed-form bound of the cell where the paper gives one.
func checkSolve(rep *sessionproblem.Report, m sessionproblem.Model, comm sessionproblem.Comm, p instance) error {
	if rep.Sessions < p.S {
		return fmt.Errorf("%d sessions, want at least %d", rep.Sessions, p.S)
	}
	if len(rep.Spans) != rep.Sessions {
		return fmt.Errorf("%d spans for %d sessions", len(rep.Spans), rep.Sessions)
	}
	for i, sp := range rep.Spans {
		if sp.Index != i+1 || sp.Start > sp.End {
			return fmt.Errorf("span %d malformed: %+v", i, sp)
		}
		if i > 0 && sp.Start < rep.Spans[i-1].End {
			return fmt.Errorf("span %d starts at %d before span %d ends at %d", i+1, sp.Start, i, rep.Spans[i-1].End)
		}
	}
	var bound int64
	ok := true
	switch {
	case m == sessionproblem.Synchronous:
		bound = p.syncTime()
	case comm != sessionproblem.MessagePassing:
		ok = false
	case m == sessionproblem.Periodic:
		bound = p.periodicMPUpper()
	case m == sessionproblem.SemiSynchronous:
		bound = p.semiSyncMPUpper()
	case m == sessionproblem.Sporadic:
		bound = p.sporadicMPUpper(rep.Gamma)
	case m == sessionproblem.Asynchronous:
		bound = p.asyncMPUpper()
	}
	if ok && rep.Finish > bound {
		return fmt.Errorf("finish %d exceeds the closed-form bound %d", rep.Finish, bound)
	}
	return nil
}

// sessionCounter counts disjoint sessions from the paper's definition: a
// session is a minimal fragment of the computation holding at least one
// port step of every port, and the greedy cut — close a session at the
// first step that completes the port set — yields the most disjoint ones.
// Each port remembers the last session number it stepped in, so opening
// the next session clears nothing.
type sessionCounter struct {
	mark   []int // mark[port] = 1 + number of the session the port last stepped in
	seen   int   // ports seen in the open session
	closed int   // completed sessions
	ends   []int64
}

func newSessionCounter(ports int) *sessionCounter {
	return &sessionCounter{mark: make([]int, ports)}
}

// ObserveStep implements model.StepObserver.
func (c *sessionCounter) ObserveStep(s model.Step) {
	if s.Port < 0 || s.Port >= len(c.mark) || c.mark[s.Port] == c.closed+1 {
		return
	}
	c.mark[s.Port] = c.closed + 1
	c.seen++
	if c.seen == len(c.mark) {
		c.closed++
		c.seen = 0
		c.ends = append(c.ends, int64(s.Time))
	}
}

// tee feeds every step to several observers.
type tee []model.StepObserver

func (t tee) ObserveStep(s model.Step) {
	for _, o := range t {
		o.ObserveStep(s)
	}
}
