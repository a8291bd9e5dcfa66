package netsim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current run")

// seededFaults is faults.Injector's link model (which netsim cannot
// import): drop, duplicate and delay drawn per attempt in a fixed order.
type seededFaults struct {
	rng *sim.RNG
}

func (s *seededFaults) OnWired(from, to ids.NodeID) LinkFault {
	var f LinkFault
	f.Drop = s.rng.Prob(0.10)
	f.Duplicate = s.rng.Prob(0.025)
	if s.rng.Prob(0.10) {
		f.Delay = s.rng.Uniform(time.Nanosecond, 30*time.Millisecond)
	}
	return f
}

// countedLatency counts the delay samples the network draws.
type countedLatency struct {
	LatencyModel
	n int
}

func (c *countedLatency) Sample(rng *sim.RNG) time.Duration {
	c.n++
	return c.LatencyModel.Sample(rng)
}

// describe renders a message as the observer saw it: its kind, which
// message of the run it is and, for a link-layer frame, its epoch and
// sequence number and what it carries or acknowledges.
func describe(m msg.Message) string {
	switch v := m.(type) {
	case msg.LinkFrame:
		return fmt.Sprintf("%v/%d/%s", v.Kind(), v.Seq, describe(v.Inner))
	case msg.LinkAck:
		return fmt.Sprintf("%v/%d", v.Kind(), v.Seq)
	case msg.WtpData:
		inner := make([]string, len(v.Inner))
		for i, in := range v.Inner {
			inner[i] = describe(in)
		}
		return fmt.Sprintf("%v/%d/%d[%s]", v.Kind(), v.Epoch, v.Seq, strings.Join(inner, " "))
	case msg.WtpAck:
		return fmt.Sprintf("%v/%d/%d%v", v.Kind(), v.Epoch, v.Cum, v.Sacks)
	case msg.ResultDeliver:
		return fmt.Sprintf("%v:%d/%d/%dB", v.Kind(), v.Req.Origin, v.Req.Seq, len(v.Payload))
	case msg.Request:
		return fmt.Sprintf("%v:%d/%d", v.Kind(), v.Req.Origin, v.Req.Seq)
	case msg.Dereg:
		return fmt.Sprintf("%v:%d", v.Kind(), v.MH)
	case msg.Greet:
		return fmt.Sprintf("%v:%d", v.Kind(), v.MH)
	}
	return m.Kind().String()
}

// TestARQFaultyLinkGolden holds the ARQ's observable behaviour to a
// recorded run: 2 000 messages among four static hosts over links that
// drop, duplicate and delay at fault_recovery's rates, one receiver down
// for a window, replies sent from inside delivery. Every observer event
// with its instant (the delivered ones are the delivery order), the
// per-link retransmission counts, ARQStats and the number of delay
// samples drawn must repeat exactly — the reference any rewrite of
// arq.go is held to. The bounded run offers 400 messages to links that
// hold three frames each, so attempts are shed under the same faults.
func TestARQFaultyLinkGolden(t *testing.T) {
	t.Run("faulty", func(t *testing.T) { arqGolden(t, "arq-faulty.golden", 2000, 0) })
	t.Run("bounded", func(t *testing.T) { arqGolden(t, "arq-bounded.golden", 400, 3) })
}

func arqGolden(t *testing.T, golden string, messages, queueLimit int) {
	k := sim.NewKernel(7)
	members := staticMembers()
	lat := &countedLatency{LatencyModel: Uniform{Lo: 2 * time.Millisecond, Hi: 8 * time.Millisecond}}
	down := false
	victim := ids.MSS(2).Node()
	var out bytes.Buffer
	out.WriteString("# events: at-ns kind from>to message\n")
	w := NewWired(k, members, WiredConfig{
		Latency: lat,
		Causal:  true,
		Faults:  &seededFaults{rng: k.RNG().Fork()},
		ARQ:     ARQConfig{Enabled: true, RTO: 60 * time.Millisecond, MaxBackoff: 250 * time.Millisecond},
		Down:    func(n ids.NodeID) bool { return down && n == victim },

		QueueLimit: queueLimit,
	}, func(at sim.Time, _ Layer, kind EventKind, from, to ids.NodeID, m msg.Message) {
		fmt.Fprintf(&out, "%d %v %v>%v %s\n", int64(at), kind, from, to, describe(m))
	})
	for _, n := range members {
		w.Register(n, HandlerFunc(func(from ids.NodeID, m msg.Message) {
			if v, ok := m.(msg.Dereg); ok && v.MH%7 == 0 { // send from inside delivery
				w.Send(n, from, msg.Greet{MH: v.MH})
			}
		}))
	}
	k.Defer(100*time.Millisecond, func() { down = true })
	k.Defer(250*time.Millisecond, func() { down = false })
	for i := 0; i < messages; i++ {
		from := i % len(members)
		to := (from + 1 + (i/len(members))%(len(members)-1)) % len(members)
		m := msg.Dereg{MH: ids.MH(i + 1)}
		k.Defer(time.Duration(i)*500*time.Microsecond, func() { w.Send(members[from], members[to], m) })
	}
	k.Run()

	out.WriteString("# links: from>to sent retransmits\n")
	keys := make([]int, 0, len(w.links))
	for key := range w.links {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	for _, key := range keys {
		l := w.links[key]
		fmt.Fprintf(&out, "%v>%v %d %d\n", l.from, l.to, l.nextSeq, l.retransmits)
	}
	retransmits, outstanding := w.ARQStats()
	fmt.Fprintf(&out, "# totals\nretransmits %d outstanding %d delay-samples %d shed %d\n",
		retransmits, outstanding, lat.n, w.Shed())
	checkGolden(t, golden, out.Bytes())
}

// checkGolden compares a run's record with testdata/golden, or rewrites
// the file under -update, and names the first line that differs.
func checkGolden(t *testing.T, golden string, out []byte) {
	t.Helper()
	path := filepath.Join("testdata", golden)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(out, want) {
		got, wantLines := bytes.Split(out, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range got {
			if i >= len(wantLines) || !bytes.Equal(got[i], wantLines[i]) {
				wantLine := "<end of file>"
				if i < len(wantLines) {
					wantLine = string(wantLines[i])
				}
				t.Fatalf("run diverges from %s at line %d:\n got  %s\n want %s", path, i+1, got[i], wantLine)
			}
		}
		t.Fatalf("run is a strict prefix of %s: %d lines, want %d", path, len(got), len(wantLines))
	}
}
