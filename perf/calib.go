package main

// The calibrated clock.
//
// Wall time on a shared two-core box drifts by tens of percent between
// back-to-back runs of bit-identical work (frequency, steal, cache
// neighbours). A timed region is therefore advanced in short slices, one
// fixed calibration unit runs between slices, and each slice's running
// time (wall time less what the hypervisor stole) is divided by the speed
// of the units around it: what is reported is "how many reference-machine
// seconds this much work is worth", not how long this machine happened to
// take.
//
// The unit has the simulator's character without its code (this file
// imports nothing from the repo, a test pins that): a binary heap of
// value events, random reads and writes over a table well past L2, and
// uvarint encode/decode. It allocates nothing after newCalib.

import (
	"bytes"
	"encoding/binary"
	"os"
	"strconv"
	"time"
)

const (
	// calibRefNs is the frozen wall time of one calibration unit on the
	// reference machine (the box this benchmark was sized on). It only
	// fixes the unit of a calibrated second; changing it rescales every
	// timing metric, so it never changes.
	calibRefNs = 22e6

	// Iterations per unit, sized for ~22 ms in all.
	calibTableIters  = 1_000_000
	calibHeapIters   = 20_000
	calibVarintIters = 100_000
	calibTableBits   = 21   // 2^21 uint64 = 16 MB
	calibHeapSize    = 4096 // steady-state pending events
)

type calibEvent struct {
	at  uint64
	seq uint32
}

type calib struct {
	table []uint64
	heap  []calibEvent
	buf   [binary.MaxVarintLen64]byte
	rng   uint64
	seq   uint32
	now   uint64
	sink  uint64

	units    []float64 // running ns of every unit so far (raw block)
	stolenNs float64   // steal seen inside timed stretches (raw block)
}

func newCalib() *calib {
	c := &calib{
		table: make([]uint64, 1<<calibTableBits),
		heap:  make([]calibEvent, 0, calibHeapSize+1),
		rng:   0x9e3779b97f4a7c15,
		units: make([]float64, 0, 4096),
	}
	for i := range c.table {
		c.table[i] = c.next()
	}
	for len(c.heap) < calibHeapSize {
		c.push(calibEvent{at: c.next() >> 40, seq: c.seq})
		c.seq++
	}
	// Warm: page in the table and let the heap reach its steady shape.
	for i := 0; i < 3; i++ {
		c.work()
	}
	return c
}

func (c *calib) next() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

func calibLess(a, b calibEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *calib) push(e calibEvent) {
	c.heap = append(c.heap, e)
	q := c.heap
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !calibLess(e, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

func (c *calib) pop() calibEvent {
	q := c.heap
	top := q[0]
	n := len(q) - 1
	e := q[n]
	c.heap = q[:n]
	q = q[:n]
	i := 0
	for {
		ch := 2*i + 1
		if ch >= n {
			break
		}
		if r := ch + 1; r < n && calibLess(q[r], q[ch]) {
			ch = r
		}
		if !calibLess(q[ch], e) {
			break
		}
		q[i] = q[ch]
		i = ch
	}
	if n > 0 {
		q[i] = e
	}
	return top
}

// work is the fixed body of one unit: a stretch of independent random
// reads and writes over the table, a stretch of heap pops and pushes, and
// a stretch of uvarint round trips. The table stretch is the longest by
// far: what slows the simulator on a shared box is its cache misses, and
// sizing on this class of machine showed wall time of the simulation
// tracking such a loop one to one while arithmetic-bound loops stay flat.
func (c *calib) work() {
	const mask = 1<<calibTableBits - 1
	var sum uint64
	for i := 0; i < calibTableIters; i++ {
		r := c.next()
		c.table[r&mask] += r
		sum += c.table[(r>>25)&mask]
	}
	for i := 0; i < calibHeapIters; i++ {
		e := c.pop()
		c.now = e.at
		c.push(calibEvent{at: c.now + c.next()>>44, seq: c.seq})
		c.seq++
	}
	for i := 0; i < calibVarintIters; i++ {
		n := binary.PutUvarint(c.buf[:], sum+uint64(i)<<uint(i&31))
		d, _ := binary.Uvarint(c.buf[:n])
		sum += d
	}
	c.sink += sum
}

// stolenNs reads the time the hypervisor ran something else while a
// virtual CPU of this machine wanted to run ("steal" in /proc/stat, in
// 10 ms ticks). With the collector paused the benchmark is one running
// thread, so steal accrued during a stretch was taken from it. Zero where
// /proc/stat has no such column.
func stolenNs() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	f := bytes.Fields(b) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, err := strconv.ParseFloat(string(f[8]), 64)
	if err != nil {
		return 0
	}
	return ticks * 1e7
}

// timed runs fn and returns the wall time it was actually running: wall
// time less what was stolen meanwhile (never less than half the wall time:
// the steal clock ticks in 10 ms steps that can land late).
func (c *calib) timed(fn func()) float64 {
	s0 := stolenNs()
	t0 := time.Now()
	fn()
	wall := float64(time.Since(t0))
	stolen := stolenNs() - s0
	c.stolenNs += stolen
	return max(wall-stolen, wall/2)
}

// unit runs one calibration unit and returns its running time in ns.
func (c *calib) unit() float64 {
	ns := c.timed(c.work)
	c.units = append(c.units, ns)
	return ns
}

// calibLead is how many units a timed region runs before its first slice
// and after its last one; with one unit between slices, every slice has
// calibLead units on each side (75 ms of calibration at the reference
// speed).
const calibLead = 3

// calibrated is a timed region advanced in slices:
//
//	r := c.begin()
//	for ... { r.slice(func() { advance the region a little }) }
//	calibratedSeconds, rawSeconds := r.end()
//
// A slice's wall time is scaled by calibRefNs over the median of the
// calibLead units on each side of it: the median, because a unit that is
// itself preempted must not shrink its neighbours.
type calibrated struct {
	c     *calib
	first int       // index in c.units of the region's first unit
	raw   []float64 // running ns per slice
}

func (c *calib) begin() *calibrated {
	r := &calibrated{c: c, first: len(c.units)}
	for i := 0; i < calibLead; i++ {
		c.unit()
	}
	return r
}

func (r *calibrated) slice(fn func()) {
	r.raw = append(r.raw, r.c.timed(fn))
	r.c.unit()
}

func (r *calibrated) end() (calibratedSeconds, rawSeconds float64) {
	for i := 1; i < calibLead; i++ {
		r.c.unit()
	}
	return r.scaled()
}

// scaled converts the region's slices once every unit around them has run.
func (r *calibrated) scaled() (calibratedSeconds, rawSeconds float64) {
	var cal, raw float64
	for i, ns := range r.raw {
		after := r.first + calibLead + i // the unit that followed slice i
		cal += ns * calibRefNs / median(r.c.units[after-calibLead:after+calibLead])
		raw += ns
	}
	return cal / 1e9, raw / 1e9
}
