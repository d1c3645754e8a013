package main

import (
	"time"

	"alock/internal/api"
	"alock/internal/locks"
	"alock/internal/model"
	"alock/internal/nic"
	"alock/internal/ptr"
	"alock/internal/sim"
	"alock/internal/stats"
)

// microCosts are per-call host costs of single layer functions, measured
// with no scenario around them. Multiplied by a run's exact counts they give
// a layer-share estimate independent of the traced self times.
type microCosts struct {
	nsPerEvent  float64 // compute-only engine loop (event queue + handoff)
	submitNS    float64 // nic.NIC.Submit
	fenceNS     float64 // locks.FenceTable Grant + Retire
	histAddNS   float64 // stats.Hist.Add
	newPerNodeS float64 // sim.New per node at the default region size
}

// microReps is how many batches each micro case runs; the median is kept.
const microReps = 5

func measureMicro() microCosts {
	return microCosts{
		nsPerEvent:  medianOf(microEngine),
		submitNS:    medianOf(microSubmit),
		fenceNS:     medianOf(microFence),
		histAddNS:   medianOf(microHist),
		newPerNodeS: medianOf(microNew),
	}
}

func medianOf(f func() float64) float64 {
	xs := make([]float64, microReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// microEngine runs compute-only threads (each event is one Work call, so
// every event is a queue push/pop and a thread handoff) and returns host ns
// per event.
func microEngine() float64 {
	const threads, horizonNS = 16, 2_000_000
	e := sim.New(2, 1<<10, model.CX3(), 1)
	for i := 0; i < threads; i++ {
		step := time.Duration(50 + 7*i) // distinct periods keep the queue order mixed
		e.Spawn(i%2, func(ctx api.Ctx) {
			for !ctx.Stopped() {
				ctx.Work(step)
			}
		})
	}
	t0 := clock()
	e.Run(horizonNS)
	return float64(clock()-t0) / float64(e.Events())
}

// microSubmit drives one NIC with a rotating set of queue pairs, loopback
// and remote verbs, and in-flight counts on both sides of the congestion
// thresholds.
func microSubmit() float64 {
	const n = 200_000
	p := model.CX3()
	card := nic.New(0, p)
	var now int64
	t0 := clock()
	for i := 0; i < n; i++ {
		qp := nic.QP{SrcNode: i % 10, SrcThread: i % 8, DstNode: 0}
		card.Submit(now, qp, i%3 == 0, i%12)
		now += 40
	}
	return float64(clock()-t0) / n
}

// microFence grants and retires fencing tokens over a 100-lock table.
func microFence() float64 {
	const n = 200_000
	ft := locks.NewFenceTable()
	t0 := clock()
	for i := 0; i < n; i++ {
		l := ptr.Pack(i%10, uint64(8*(i%100)))
		ft.Retire(l, ft.Grant(l))
	}
	return float64(clock()-t0) / n
}

// microHist adds latencies spread over four decades to a histogram.
func microHist() float64 {
	const n = 1_000_000
	var h stats.Hist
	x := uint64(88172645463325252)
	t0 := clock()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Add(int64(100 + x%100_000))
	}
	histSink = h.Count()
	return float64(clock()-t0) / n
}

var histSink int64

// microNew builds single-node engines at the default region size and
// returns host seconds per node.
func microNew() float64 {
	const n = 4
	t0 := clock()
	for i := 0; i < n; i++ {
		engineSink = sim.New(1, 1<<20, model.CX3(), 1)
	}
	engineSink = nil
	return float64(clock()-t0) / 1e9 / n
}

var engineSink *sim.Engine
