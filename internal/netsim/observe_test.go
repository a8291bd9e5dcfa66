package netsim

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/wtp"
)

// Pins of what a listener that only counts costs: a substrate shows a leg
// as a msg.View and a link-layer frame by a pointer into the record that
// carries it, so its reports box nothing (the Observer's borrow contract).

// tally is a counting Observer: events by kind, and the drops of each
// link-layer kind.
type tally struct {
	events                  [EventShed + 1]int
	lostFrames, lostAcks    int
	lostWtpData, lostWtpAck int
}

func (c *tally) observe(_ sim.Time, _ Layer, kind EventKind, _, _ ids.NodeID, m msg.Message) {
	c.events[kind]++
	if !kind.IsDrop() {
		return
	}
	switch m.Kind() {
	case msg.KindLinkFrame:
		c.lostFrames++
	case msg.KindLinkAck:
		c.lostAcks++
	case msg.KindWtpData:
		c.lostWtpData++
	case msg.KindWtpAck:
		c.lostWtpAck++
	}
}

// TestARQDropReportAllocBudget: a lost ARQ attempt is reported as the
// LinkFrame (or LinkAck) the ARQ record holds, shown by pointer with the
// kept leg as a view inside, so over fault_recovery's fault mix a burst of
// legs costs nothing under a counting Observer. (At the parent, which
// boxed each leg for the listener and each lost envelope at its report:
// 10.0 allocations a burst of eight.)
func TestARQDropReportAllocBudget(t *testing.T) {
	k := sim.NewKernel(1)
	var c tally
	w := NewWired(k, staticMembers(), WiredConfig{
		Latency: Constant(time.Millisecond), Causal: true, Faults: arqLinks["faulty"](k),
		ARQ: ARQConfig{Enabled: true, RTO: 10 * time.Millisecond},
	}, c.observe)
	sink := &legSink{}
	for _, n := range staticMembers() {
		w.Register(n, sink)
	}
	from, to := ids.MSS(1).Node(), ids.MSS(2).Node()
	avg := hopAllocs(k, func() {
		for i := 0; i < 8; i++ {
			w.Send(from, to, msg.ViewOf(&sampleLeg))
		}
	})
	if avg != 0 {
		t.Errorf("ARQ burst of 8 legs under a counting observer: %.1f allocs, budget 0", avg)
	}
	if c.lostFrames == 0 || c.lostAcks == 0 || sink.views != 8*(64+201) || sink.others != 0 {
		t.Errorf("%d lost frames, %d lost acks, %d views and %d others delivered: the run does not exercise the reports",
			c.lostFrames, c.lostAcks, sink.views, sink.others)
	}
}

// TestWtpReportAllocBudget: a windowed frame's reports — the Sent of a
// result queued on the link, the Delivered and the drops of its data
// frame and ack — show the frame by a pointer into its radio record, so a
// counting Observer adds nothing: a result sent down a warm windowed link
// costs nothing, as TestWtpDownlinkAllocBudget pins without a listener; a
// fresh frame delivered in order and acked, and a frame dropped at an
// unreachable host, cost 0; and a lossy link costs what it costs
// unobserved. (Before windowed frames carried envelopes, the first cost
// the frame's message list, 1; before that, when the WtpData and the
// WtpAck were boxed for the listener: 3, 2, 1, and 4.0 against 1.0.)
func TestWtpReportAllocBudget(t *testing.T) {
	away := false
	radio := func(loss float64, obs Observer) (*sim.Kernel, *Wireless) {
		k := sim.NewKernel(1)
		w := NewWireless(k, WirelessConfig{
			Latency: Constant(time.Millisecond), LossProb: loss, QueueLimit: 8, WTP: wtp.Config{Enabled: true},
			Reachable: func(ids.MSS, ids.MH) bool { return !away },
		}, obs)
		w.RegisterMSS(1, nopHandler())
		w.RegisterMH(7, nopHandler())
		return k, w
	}
	var c tally
	k, w := radio(0, c.observe)
	var res msg.Message = msg.ResultDeliver{Req: ids.RequestID{Origin: 7, Seq: 1}}
	if avg := hopAllocs(k, func() { w.SendDownlink(1, 7, res) }); avg != 0 {
		t.Errorf("windowed result sent, framed, delivered and acked: %.1f allocs, budget 0", avg)
	}
	// The sender's first frames were epoch 1, sequence 1 on; a frame of the
	// next epoch resets the receiver and is taken in order from 1.
	fresh := msg.WtpData{Epoch: 2, Inner: []msg.Envelope{msg.EnvelopeOf(res)}}
	if avg := hopAllocs(k, func() {
		fresh.Seq++
		w.transmitWtpFrame(1, 7, fresh)
	}); avg != 0 {
		t.Errorf("fresh windowed frame delivered and acked: %.1f allocs, budget 0", avg)
	}
	away = true
	if avg := hopAllocs(k, func() { w.transmitWtpFrame(1, 7, fresh) }); avg != 0 {
		t.Errorf("windowed frame dropped at an unreachable host: %.1f allocs, budget 0", avg)
	}
	away = false
	if c.events[EventSent] == 0 || c.events[EventDelivered] == 0 || c.lostWtpData == 0 {
		t.Errorf("events %v, %d data frames lost: the run does not exercise the reports", c.events, c.lostWtpData)
	}

	var lossy tally
	lossyAllocs := func(obs Observer) float64 {
		k, w := radio(0.3, obs)
		return hopAllocs(k, func() { w.SendDownlink(1, 7, res) })
	}
	if with, without := lossyAllocs(lossy.observe), lossyAllocs(nil); with != without {
		t.Errorf("lossy windowed link: %.2f allocs a result under a counting observer, %.2f without", with, without)
	}
	if lossy.lostWtpData == 0 || lossy.lostWtpAck == 0 {
		t.Errorf("%d data frames and %d acks lost: the lossy run does not exercise the drop reports",
			lossy.lostWtpData, lossy.lostWtpAck)
	}
}
