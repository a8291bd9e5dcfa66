package netsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/wtp"
)

// TestWtpLossyGolden holds the windowed radio's observable behaviour to a
// recorded run: six hosts in two cells over a radio that loses 10 % of
// its frames, links bounded to four frames in flight, bursts that fill
// frames to the MTU, one host out of reach long enough for its link to
// reset and then back, and sends from inside delivery — an uplink request
// the station answers at once, and a downlink queued on the very link
// whose receiver is handing results up. Every observer event with its
// instant, every wtp hook call in order and WTPStats must repeat exactly:
// the reference any rewrite of internal/wtp or of the radio's windowed
// path is held to. The observer's messages are kept as it was handed
// them and rendered only at the end, so a message list or a sack list
// reused after an observer saw it shows up as a diff.
func TestWtpLossyGolden(t *testing.T) {
	k := sim.NewKernel(11)
	type entry struct {
		at       sim.Time
		kind     EventKind
		from, to ids.NodeID
		m        msg.Message
		hook     string // a hook call instead of an event
	}
	var log []entry
	hook := func(format string, args ...any) {
		log = append(log, entry{at: k.Now(), hook: fmt.Sprintf(format, args...)})
	}
	const hosts, victim = 6, ids.MH(3)
	away := false
	home := func(mh ids.MH) ids.MSS { return ids.MSS(1 + mh%2) }
	w := NewWireless(k, WirelessConfig{
		Latency:    Uniform{Lo: 10 * time.Millisecond, Hi: 30 * time.Millisecond},
		LossProb:   0.10,
		QueueLimit: 4,
		Reachable:  func(mss ids.MSS, mh ids.MH) bool { return mss == home(mh) && !(away && mh == victim) },
		WTP: wtp.Config{
			Enabled: true, Window: 8, MTU: 400, MaxSacks: 4,
			InitialRTO: 60 * time.Millisecond, MaxRTO: 400 * time.Millisecond, MaxRetries: 5,
			OnRTTSample:  func(rtt, rto time.Duration) { hook("rtt %d rto %d", rtt, rto) },
			OnCwnd:       func(c int) { hook("cwnd %d", c) },
			OnRetransmit: func() { hook("retransmit") },
			OnFrame:      func(n int) { hook("frame %d", n) },
			OnReset:      func(n int) { hook("reset %d", n) },
		},
	}, func(at sim.Time, _ Layer, kind EventKind, from, to ids.NodeID, m msg.Message) {
		log = append(log, entry{at: at, kind: kind, from: from, to: to, m: m})
	})
	result := func(mh ids.MH, seq uint32, size int) msg.ResultDeliver {
		return msg.ResultDeliver{Req: ids.RequestID{Origin: mh, Seq: seq}, Payload: make([]byte, size)}
	}
	for mh := ids.MH(1); mh <= hosts; mh++ {
		w.RegisterMH(mh, HandlerFunc(func(_ ids.NodeID, m msg.Message) {
			rd := m.(msg.ResultDeliver)
			if rd.Req.Seq >= 100000 {
				return // a reply: it starts no chain of its own
			}
			if rd.Req.Seq%5 == 0 {
				w.SendUplink(mh, home(mh), msg.Request{Req: rd.Req})
			}
			if rd.Req.Seq%7 == 0 {
				w.SendDownlink(home(mh), mh, result(mh, rd.Req.Seq+100000, 48))
			}
		}))
	}
	for mss := ids.MSS(1); mss <= 2; mss++ {
		w.RegisterMSS(mss, HandlerFunc(func(from ids.NodeID, m msg.Message) {
			req := m.(msg.Request)
			w.SendDownlink(mss, req.Req.Origin, result(req.Req.Origin, req.Req.Seq+200000, 96))
		}))
	}
	k.Defer(300*time.Millisecond, func() { away = true })
	k.Defer(2300*time.Millisecond, func() { away = false })
	seq := uint32(0)
	for i := 0; i < 600; i++ {
		mh := ids.MH(1 + i%hosts)
		burst := 1
		if i%25 == 0 {
			burst = 6
		}
		k.Defer(time.Duration(i)*5*time.Millisecond, func() {
			for j := 0; j < burst; j++ {
				seq++
				w.SendDownlink(home(mh), mh, result(mh, seq, 20+int(seq*37)%200))
			}
		})
	}
	k.Run()

	var out bytes.Buffer
	out.WriteString("# at-ns kind from>to message, or at-ns hook call\n")
	for _, e := range log {
		if e.hook != "" {
			fmt.Fprintf(&out, "%d %s\n", int64(e.at), e.hook)
			continue
		}
		fmt.Fprintf(&out, "%d %v %v>%v %s\n", int64(e.at), e.kind, e.from, e.to, describe(e.m))
	}
	re, fast, resets, frames, msgs, dups := w.WTPStats()
	fmt.Fprintf(&out, "# totals\nretransmits %d fast %d resets %d frames %d msgs %d dups %d shed %d\n",
		re, fast, resets, frames, msgs, dups, w.Shed())
	if fast == 0 || resets == 0 || dups == 0 || w.Shed() == 0 || msgs <= frames {
		t.Errorf("the run must coalesce, fast-retransmit, reset, see a duplicate and shed: %s", out.Bytes()[bytes.LastIndex(out.Bytes(), []byte("retransmits")):])
	}
	checkGolden(t, "wtp-lossy.golden", out.Bytes())
}
