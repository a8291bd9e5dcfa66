package rdp_test

import (
	"fmt"
	"time"

	rdp "repro"
)

// The headline guarantee: a result chases its mobile host across a
// migration.
func Example() {
	world := rdp.NewWorld(rdp.DefaultConfig())
	mh := world.AddMH(1, 1)

	var req rdp.RequestID
	world.Schedule(0, func() { req = mh.IssueRequest(1, []byte("hello")) })
	world.Schedule(60*time.Millisecond, func() { world.Migrate(1, 2) })
	world.RunUntil(2 * time.Second)

	fmt.Println("delivered:", mh.Seen(req))
	fmt.Println("hand-offs:", world.Stats.Handoffs.Value())
	// Output:
	// delivered: true
	// hand-offs: 1
}

// Results wait out inactivity: the proxy retransmits when the host
// reactivates.
func ExampleWorld_SetActive() {
	world := rdp.NewWorld(rdp.DefaultConfig())
	mh := world.AddMH(1, 1)

	var req rdp.RequestID
	world.Schedule(0, func() { req = mh.IssueRequest(1, []byte("q")) })
	world.Schedule(50*time.Millisecond, func() { world.SetActive(1, false) })
	world.Schedule(800*time.Millisecond, func() { world.SetActive(1, true) })
	world.RunUntil(3 * time.Second)

	fmt.Println("delivered:", mh.Seen(req))
	fmt.Println("retransmissions:", world.Stats.Retransmissions.Value())
	// Output:
	// delivered: true
	// retransmissions: 1
}

// A trace recorder captures the protocol flow for inspection.
func ExampleTraceRecorder() {
	rec := rdp.NewTrace()
	cfg := rdp.DefaultConfig()
	cfg.Observer = rec.Observe
	world := rdp.NewWorld(cfg)
	mh := world.AddMH(1, 1)
	world.Schedule(0, func() { mh.IssueRequest(1, []byte("q")) })
	world.RunUntil(time.Second)

	err := rec.ExpectSequence([]rdp.TraceStep{
		{Kind: rdp.KindRequest},
		{Kind: rdp.KindServerRequest},
		{Kind: rdp.KindServerResult},
		{Kind: rdp.KindResultDeliver},
		{Kind: rdp.KindAckMH},
	})
	fmt.Println("flow matches the paper:", err == nil)
	// Output:
	// flow matches the paper: true
}

// The recorder renders traces as space-time diagrams — the visual form
// of the paper's Figures 3 and 4.
func ExampleTraceRecorder_Diagram() {
	rec := rdp.NewTrace()
	cfg := rdp.DefaultConfig()
	cfg.Observer = rec.Observe
	world := rdp.NewWorld(cfg)
	mh := world.AddMH(1, 1)
	world.Schedule(0, func() { mh.IssueRequest(1, []byte("q")) })
	world.Schedule(40*time.Millisecond, func() { world.Migrate(1, 2) })
	world.RunUntil(time.Second)
	fmt.Print(rec.Diagram(rdp.DiagramOptions{LaneWidth: 13}))
	// Output:
	// time            mh1         mss1         mss2         srv1
	// 20ms             |----join--->|            |            |
	// 20ms             |--request-->|            |            |
	// 25ms             |            |-------srv-request------>|
	// 60ms             |----------greet--------->|            |
	// 65ms             |            |<--dereg----|            |
	// 70ms             |            |--deregack->|            |
	// 75ms             |            |<update-cur-|            |
	// 180ms            |            |<------srv-result--------|
	// 185ms            |            |-result-fwd>|            |
	// 205ms            |<--------result----------|            |
	// 225ms            |-----------ack---------->|            |
	// 230ms            |            |<-ack-fwd---|            |
}

// The same protocol stack runs over real loopback TCP sockets — the
// paper's planned "distributed processes within a Linux network". This
// example is compile-checked only (its timing is wall-clock).
func ExampleNewTCPWorld() {
	rt := rdp.NewLiveRuntime(1)
	world, net, err := rdp.NewTCPWorld(rt, rdp.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	defer net.Close()
	rt.Start()
	defer rt.Stop()

	done := make(chan struct{}, 1)
	rt.Do(func() {
		mh := world.AddMH(1, 1)
		mh.OnResult(func(_ rdp.RequestID, _ []byte, dup bool) {
			if !dup {
				done <- struct{}{}
			}
		})
		mh.IssueRequest(1, []byte("over real sockets"))
	})
	<-done
	fmt.Println("delivered over TCP")
	// Output:
	// delivered over TCP
}

// SIDAM queries ride RDP: ask any Traffic Information Server, receive
// the owning server's reading wherever you have driven meanwhile.
func ExampleInstallSidam() {
	cfg := rdp.DefaultConfig()
	cfg.NumServers = 3
	world := rdp.NewWorld(cfg)
	net := rdp.InstallSidam(world, rdp.SidamConfig{Regions: 9})

	mh := world.AddMH(1, 1)
	mh.OnResult(func(_ rdp.RequestID, payload []byte, dup bool) {
		if dup {
			return
		}
		if r, err := rdp.ParseReading(payload); err == nil {
			fmt.Printf("region %d congestion %d%%\n", r.Region, r.Congestion)
		}
	})
	world.Schedule(0, func() { mh.IssueRequest(net.AnyTIS(), rdp.UpdatePayload(4, 55)) })
	world.Schedule(time.Second, func() { mh.IssueRequest(net.AnyTIS(), rdp.QueryPayload(4)) })
	world.RunUntil(3 * time.Second)
	// Output:
	// region 4 congestion 55%
	// region 4 congestion 55%
}
