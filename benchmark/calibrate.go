package main

import (
	"runtime"
	"time"
)

// This host is a few cores of a shared machine, and what its neighbours
// do moves every child process by 20–30 % for minutes at a time
// (README.md, Noise). No estimator inside a run removes a spell that
// outlasts the run, so the run measures the host beside the program:
// between the children it times a fixed kernel, and every timing it
// reports is divided by how slow that kernel ran. The kernel does what
// the shipped binaries spend their time on, allocation under Go's
// collector, in two shapes: slices growing in a map, and linked nodes
// hashed into a map and then walked. In the noisiest of four recordings
// of kernels interleaved with children the sum of the two moved with the
// children (correlation 0.98 between the logarithms of run medians,
// slope 0.97), where a dependent multiply chain stayed flat and a
// pointer chase moved by two thirds as much; README.md, Host
// correction, has the readings.

const (
	churnSteps = 1500000
	nodeCount  = 400000
	// kernelNominalMS is the kernel's time in this host's quiet spells.
	// It only fixes the unit — slowness 1.0 is "a quiet host of this
	// class" — and cancels out of every comparison between two runs.
	kernelNominalMS = 95.0
	// kernelReps samples are taken at a time, and kernelEvery is the
	// least time between two takes, which bounds the kernel's share of a
	// run to a quarter however short the items; beside the second-long
	// items of the sequential workloads it is a seventh. A sample swings
	// by ±15 % on its own, so the median of 20 of them would carry as
	// much error as the children's medians do; 40 carry less.
	kernelReps  = 2
	kernelEvery = 750 * time.Millisecond
)

type kernelNode struct {
	next *kernelNode
	key  uint64
	pad  [3]uint64
}

// hostKernel runs the kernel once and returns its time in ms.
func hostKernel() float64 {
	runtime.GC() // every sample starts from the same small heap
	start := time.Now()
	churn()
	linkAndWalk()
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// churn grows 5 000 slices in a map, dropping one in seven appends'
// worth for a fresh one.
func churn() {
	m := make(map[int][]int)
	for j := 0; j < churnSteps; j++ {
		k := j % 5000
		m[k] = append(m[k], j)
		if j%7 == 0 {
			m[k] = make([]int, 0, 8)
		}
	}
	runtime.KeepAlive(m)
}

// linkAndWalk hashes chains of up to 16 linked nodes into 60 000 map
// slots, most of them garbage once overwritten, then walks what is left.
func linkAndWalk() {
	m := make(map[uint64]*kernelNode)
	var prev *kernelNode
	x := uint64(7)
	for i := 0; i < nodeCount; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		n := &kernelNode{key: x, next: prev}
		prev = n
		if i%16 == 0 {
			prev = nil
		}
		m[(x>>33)%60000] = n
	}
	walked := 0
	for _, n := range m {
		for ; n != nil; n = n.next {
			walked++
		}
	}
	runtime.KeepAlive(walked)
}

// hostClock samples the kernel between the operations of a run. It is
// used from the one goroutine that starts the children, never while one
// of them runs.
type hostClock struct {
	samples sample
	last    time.Time
}

// tick takes kernelReps samples unless the last are younger than
// kernelEvery.
func (h *hostClock) tick() {
	if !h.last.IsZero() && time.Since(h.last) < kernelEvery {
		return
	}
	for i := 0; i < kernelReps; i++ {
		h.samples = append(h.samples, hostKernel())
	}
	h.last = time.Now()
}

// slowness is the run's median kernel time over the nominal one: 1.0 on
// a quiet host, 1.3 in a spell that makes everything 30 % slower.
func (h *hostClock) slowness() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return h.samples.median() / kernelNominalMS
}
