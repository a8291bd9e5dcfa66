package msg

import (
	"bytes"
	"testing"

	"repro/internal/ids"
)

// FuzzDecodeLinkFrames feeds arbitrary byte strings to the codec: it
// must never panic or over-allocate, and every message it accepts must
// re-encode to a fixed point (decode(encode(m)) == encode(m)). The seed
// corpus covers the link-layer (ARQ) frames added for wired-fault
// tolerance, including an illegal nested LinkFrame payload.
func FuzzDecodeLinkFrames(f *testing.F) {
	seeds := []Message{
		LinkAck{Seq: 42},
		LinkFrame{Seq: 7, Inner: Dereg{MH: 3, NewMSS: 2}},
		LinkFrame{Seq: 1, Inner: ResultForward{
			Proxy:   ids.ProxyID{Host: 1, Seq: 4},
			MH:      3,
			Req:     ids.RequestID{Origin: 3, Seq: 9},
			Payload: []byte("result"),
			DelPref: true,
			Mark:    11,
		}},
		RegConfirm{MH: 5},
		UpdateCurrentLoc{Proxy: ids.ProxyID{Host: 2, Seq: 1}, MH: 4, NewLoc: 6},
		// Proxy-migration messages, bare and ARQ-framed, so the nested
		// MigState requestList codec is fuzz-covered from day one.
		MigOffer{Proxy: ids.ProxyID{Host: 1, Seq: 2}, MH: 3, Pending: 1, HostLoad: 2},
		MigCommit{Proxy: ids.ProxyID{Host: 1, Seq: 2}, NewProxy: ids.ProxyID{Host: 2, Seq: 7}, MH: 3, Accept: true},
		PrefRedirect{MH: 3, OldProxy: ids.ProxyID{Host: 1, Seq: 2}, NewProxy: ids.ProxyID{Host: 2, Seq: 7}, Req: ids.RequestID{Origin: 3, Seq: 9}},
		MigGC{OldProxy: ids.ProxyID{Host: 1, Seq: 2}, NewProxy: ids.ProxyID{Host: 2, Seq: 7}, MH: 3},
		LinkFrame{Seq: 11, Inner: MigState{
			Proxy:      ids.ProxyID{Host: 1, Seq: 2},
			NewProxy:   ids.ProxyID{Host: 2, Seq: 7},
			MH:         3,
			CurrentLoc: 2,
			Reqs: []ProxyReq{
				{Req: ids.RequestID{Origin: 3, Seq: 9}, Server: 1, Payload: []byte("q"), Result: []byte("res"), HasResult: true, Forwarded: true},
			},
		}},
		// Atomic-batch messages (E17), bare and ARQ-framed, including a
		// MigState carrying batch-tagged requests so the extended
		// requestList/batchList codec is fuzz-covered from day one.
		BatchOpen{Proxy: ids.ProxyID{Host: 1, Seq: 2}, MH: 3, Batch: ids.BatchID{Origin: 3, Seq: 1}, Inc: 1, Floor: 1},
		BatchItem{Proxy: ids.ProxyID{Host: 1, Seq: 2}, MH: 3, Batch: ids.BatchID{Origin: 3, Seq: 1}, Req: ids.RequestID{Origin: 3, Seq: 9}, Server: 1, Payload: []byte("bq")},
		BatchCommit{MH: 3, Batch: ids.BatchID{Origin: 3, Seq: 1}, Count: 3, Inc: 1},
		LinkFrame{Seq: 12, Inner: BatchAbort{
			Proxy: ids.ProxyID{Host: 1, Seq: 2},
			MH:    3,
			Batch: ids.BatchID{Origin: 3, Seq: 1},
			Inc:   1,
		}},
		LinkFrame{Seq: 13, Inner: MigState{
			Proxy:    ids.ProxyID{Host: 1, Seq: 2},
			NewProxy: ids.ProxyID{Host: 2, Seq: 7},
			MH:       3,
			Reqs: []ProxyReq{
				{Req: ids.RequestID{Origin: 3, Seq: 9}, Server: 1, Payload: []byte("q"), Batch: ids.BatchID{Origin: 3, Seq: 1}},
			},
			Batches: []ProxyBatch{
				{Batch: ids.BatchID{Origin: 3, Seq: 1}, Expected: 1, Committed: true},
			},
			Floors: []BatchFloor{{MH: 3, Seq: 1, Inc: 1}},
		}},
		// Crash/amnesia-recovery messages (E18), bare and ARQ-framed,
		// plus a migration transfer that carries incarnation-stamped
		// request/batch/lease state so the Inc codec paths are
		// fuzz-covered from day one.
		Register{MH: 3, Inc: 2},
		LeaseHeartbeat{Proxy: ids.ProxyID{Host: 1, Seq: 2}, MH: 3, Inc: 2},
		LinkFrame{Seq: 14, Inner: ReclaimMemo{Proxy: ids.ProxyID{Host: 1, Seq: 2}, MH: 3}},
		LinkFrame{Seq: 15, Inner: MigState{
			Proxy:    ids.ProxyID{Host: 1, Seq: 2},
			NewProxy: ids.ProxyID{Host: 2, Seq: 7},
			MH:       3,
			Mark:     9,
			MarkInc:  2,
			LeaseInc: 3,
			Reqs: []ProxyReq{
				{Req: ids.RequestID{Origin: 3, Seq: 9}, Server: 1, Payload: []byte("q"), Inc: 2},
			},
			Batches: []ProxyBatch{
				{Batch: ids.BatchID{Origin: 3, Seq: 1}, Expected: 1, Inc: 3},
			},
		}},
		// Windowed-transport frames (E15): a coalesced multi-message data
		// frame, an empty frame, and a selective ack, so the nested
		// inner-list codec is fuzz-covered from day one.
		WtpData{Epoch: 1, Seq: 4, Inner: envelopes(
			ResultDeliver{Req: ids.RequestID{Origin: 3, Seq: 9}, Payload: []byte("r1"), Inc: 1},
			ResultDeliver{Req: ids.RequestID{Origin: 3, Seq: 10}, Payload: []byte("r2"), DelPref: true, Inc: 1},
			AckMH{MH: 3, Req: ids.RequestID{Origin: 3, Seq: 8}},
		)},
		WtpData{Epoch: 2, Seq: 0},
		WtpAck{Epoch: 1, Cum: 3, Sacks: []uint64{5, 7, 9}},
		WtpAck{Epoch: 2, Cum: 0},
		// Aggregated-state messages (E16): a coalesced hand-off location
		// update and a batched forwarded-result ack, each carrying a
		// delta-encoded member set (here the literal bytes for {1,2,3}),
		// plus empty-set variants, so the opaque-membership codec paths
		// are fuzz-covered from day one.
		GroupUpdateLoc{Proxy: ids.ProxyID{Host: 1, Seq: 1<<31 | 2}, NewLoc: 5, Members: []byte{3, 1, 1, 1}},
		GroupUpdateLoc{Proxy: ids.ProxyID{Host: 1, Seq: 1<<31 | 2}, NewLoc: 6},
		GroupAckForward{Proxy: ids.ProxyID{Host: 1, Seq: 1<<31 | 2}, Members: []byte{3, 1, 1, 1}, Seqs: []uint32{4, 5, 6}},
		GroupAckForward{Proxy: ids.ProxyID{Host: 2, Seq: 1<<31 | 1}},
	}
	for _, m := range seeds {
		b, err := Encode(m)
		if err != nil {
			f.Fatalf("seed encode %v: %v", m, err)
		}
		f.Add(b)
	}
	// A hand-built illegal nesting: LinkFrame whose inner is a LinkAck.
	// The decoder must reject it without panicking.
	inner, err := Encode(LinkAck{Seq: 1})
	if err != nil {
		f.Fatal(err)
	}
	seq := uint64(9)
	c := header(KindLinkFrame)
	u64(c, &seq)
	c.bytes(&inner)
	f.Add(c.buf)
	// And the windowed-transport variant: a WtpData frame whose inner
	// list smuggles in a WtpAck. Same rejection requirement.
	wack, err := Encode(WtpAck{Epoch: 1, Cum: 2})
	if err != nil {
		f.Fatal(err)
	}
	epoch, seq, count := uint64(1), uint64(3), uint32(1)
	c = header(KindWtpData)
	u64(c, &epoch)
	u64(c, &seq)
	u32(c, &count)
	c.bytes(&wack)
	f.Add(c.buf)
	f.Add([]byte{})
	f.Add([]byte{codecVersion, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("Decode returned nil message and nil error")
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("accepted message %v does not re-encode: %v", m, err)
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message rejected: %v", err)
		}
		re2, err := Encode(m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not a fixed point:\n first  %x\n second %x", re, re2)
		}
	})
}
