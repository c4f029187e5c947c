// Package guestos models the guest operating system's thread scheduler on a
// single VCPU: round-robin dispatch, wakeup preemption after a minimum
// granularity, and voluntary/involuntary context-switch accounting.
//
// This substrate exists for the Figure 14 result: with a fast local backend
// (Elvis + ramdisk), I/O completions wake threads while others are still
// computing, and the guest suffers involuntary context switches "two orders
// of magnitude" more often than under vRIO, whose extra latency naturally
// spaces completions out.
package guestos

import (
	"fmt"

	"vrio/internal/sim"
)

// VCPU is one virtual CPU running cooperating threads.
type VCPU struct {
	eng     *sim.Engine
	csCost  sim.Time
	minGran sim.Time

	current *Thread
	last    *Thread
	// runq is a head-indexed FIFO; the backing array is reused once drained
	// so steady-state scheduling does not allocate.
	runq       []*Thread
	runqHead   int
	runStart   sim.Time
	completion sim.EventID
	// scheduling is true while the scheduler itself runs a completion
	// callback; wakeups during it enqueue rather than dispatch, preserving
	// round-robin order.
	scheduling bool

	// InvoluntaryCS counts wakeup preemptions; VoluntaryCS counts switches
	// at block points. The ratio of the two is Figure 14's explanation.
	InvoluntaryCS uint64
	VoluntaryCS   uint64
	// BusyTime accumulates compute time (excluding switch overhead);
	// CSTime accumulates context-switch overhead.
	BusyTime sim.Time
	CSTime   sim.Time
}

// NewVCPU builds a VCPU. csCost is charged per context switch; minGran is
// the minimum uninterrupted run time before a wakeup may preempt.
func NewVCPU(eng *sim.Engine, csCost, minGran sim.Time) *VCPU {
	if csCost < 0 || minGran < 0 {
		panic("guestos: negative scheduler parameter")
	}
	return &VCPU{eng: eng, csCost: csCost, minGran: minGran}
}

type threadState int

const (
	stateBlocked threadState = iota
	stateReady
	stateRunning
)

// Thread is one guest thread. Threads alternate between computing (Do) and
// being blocked (typically on I/O); calling Do on a blocked thread is the
// wakeup.
type Thread struct {
	vcpu      *VCPU
	name      string
	state     threadState
	remaining sim.Time
	then      func()
	// completeFn is the prebound completion callback: a VCPU has at most one
	// completion event in flight, so dispatch reuses it instead of closing
	// over the thread per dispatch.
	completeFn func()

	// Completions counts finished Do calls.
	Completions uint64
}

// Spawn creates a blocked thread.
func (v *VCPU) Spawn(name string) *Thread {
	t := &Thread{vcpu: v, name: name}
	t.completeFn = func() { v.complete(t) }
	return t
}

// Do schedules compute time for t, after which then runs (it may issue I/O
// whose completion calls Do again — that is the wakeup path). Calling Do on
// a non-blocked thread is a programming error.
func (t *Thread) Do(compute sim.Time, then func()) {
	if t.state != stateBlocked {
		panic(fmt.Sprintf("guestos: Do on %s in state %d", t.name, t.state))
	}
	if compute < 0 {
		panic("guestos: negative compute time")
	}
	v := t.vcpu
	t.remaining = compute
	t.then = then
	t.state = stateReady

	if v.current == nil {
		if v.scheduling {
			v.runq = append(v.runq, t)
		} else {
			v.dispatch(t)
		}
		return
	}
	// Wakeup preemption: if the running thread has had its minimum
	// granularity, it yields the VCPU to the waker.
	ran := v.eng.Now() - v.runStart
	if ran >= v.minGran {
		v.preempt()
		v.dispatch(t)
		return
	}
	v.runq = append(v.runq, t)
}

// preempt stops the current thread and requeues it.
func (v *VCPU) preempt() {
	cur := v.current
	ran := v.eng.Now() - v.runStart
	v.eng.Cancel(v.completion)
	cur.remaining -= ran
	if cur.remaining < 0 {
		cur.remaining = 0
	}
	v.BusyTime += ran
	cur.state = stateReady
	v.current = nil
	v.runq = append(v.runq, cur)
	v.InvoluntaryCS++
}

func (v *VCPU) dispatch(t *Thread) {
	overhead := sim.Time(0)
	if v.last != nil && v.last != t {
		overhead = v.csCost
		v.CSTime += overhead
	}
	v.current = t
	v.last = t
	t.state = stateRunning
	v.runStart = v.eng.Now() + overhead
	v.completion = v.eng.After(overhead+t.remaining, t.completeFn)
}

func (v *VCPU) complete(t *Thread) {
	v.BusyTime += t.remaining
	t.remaining = 0
	t.state = stateBlocked
	t.Completions++
	v.current = nil
	then := t.then
	t.then = nil
	if then != nil {
		v.scheduling = true
		then() // may wake threads, including t itself
		v.scheduling = false
	}
	if v.runqHead < len(v.runq) {
		next := v.runq[v.runqHead]
		v.runq[v.runqHead] = nil
		v.runqHead++
		if v.runqHead == len(v.runq) {
			v.runq = v.runq[:0]
			v.runqHead = 0
		}
		v.VoluntaryCS++
		v.dispatch(next)
	}
}
