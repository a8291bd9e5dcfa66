package rdpcore

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
)

func TestJournalScanTruncatesAtFirstCorruptRecord(t *testing.T) {
	var log []byte
	for _, b := range []string{"alpha", "beta", "gamma"} {
		log = journalAppend(log, []byte(b))
	}
	recs, trunc := journalScan(log)
	if trunc || len(recs) != 3 {
		t.Fatalf("pristine scan: %d records, truncated=%v", len(recs), trunc)
	}
	if string(recs[0]) != "alpha" || string(recs[2]) != "gamma" {
		t.Fatalf("bodies corrupted on the happy path: %q", recs)
	}

	// A bit flip inside the second record's body must truncate the scan
	// to the first record: the corrupt record AND everything after it
	// are discarded (a bad prefix cannot vouch for its suffix).
	bad := append([]byte(nil), log...)
	bad[journalHeaderLen+len("alpha")+journalHeaderLen+1] ^= 0xff
	recs, trunc = journalScan(bad)
	if !trunc {
		t.Error("bit flip not detected")
	}
	if len(recs) != 1 || string(recs[0]) != "alpha" {
		t.Errorf("scan after bit flip = %q, want just alpha", recs)
	}

	// A torn tail (write cut off mid-record) keeps every whole record.
	recs, trunc = journalScan(log[: len(log)-3 : len(log)-3])
	if !trunc || len(recs) != 2 {
		t.Errorf("torn tail: %d records, truncated=%v; want 2, true", len(recs), trunc)
	}

	// A corrupt length field cannot read past the log.
	bad = append([]byte(nil), log...)
	binary.BigEndian.PutUint32(bad[0:4], 1<<30)
	recs, trunc = journalScan(bad)
	if !trunc || len(recs) != 0 {
		t.Errorf("huge length field: %d records, truncated=%v; want 0, true", len(recs), trunc)
	}
}

// TestOfflineJournalCorruptionRecoversVerifiedPrefix is the end-to-end
// regression for the checksummed stable store: an MH journals five
// offline requests, a byte of the third record is flipped in "flash",
// and the reboot replay must recover exactly the two verified records —
// counting one truncation — instead of resurrecting garbage or wedging.
func TestOfflineJournalCorruptionRecoversVerifiedPrefix(t *testing.T) {
	cfg := recoveryConfig(1)
	w := NewWorld(cfg)
	mhID := ids.MH(1)
	mh := w.AddMH(mhID, 1)
	w.RunUntil(200 * time.Millisecond)

	w.Disconnect(mhID)
	for i := 0; i < 5; i++ {
		mh.IssueRequest(1, []byte{byte(i)})
	}
	log := w.store.offline[mhID]
	if len(log) == 0 {
		t.Fatal("offline journal empty after disconnected issues")
	}

	// Flip the first body byte of the third record.
	off := 0
	for i := 0; i < 2; i++ {
		off += journalHeaderLen + int(binary.BigEndian.Uint32(log[off:off+4]))
	}
	log[off+journalHeaderLen] ^= 0x01

	w.CrashMH(mhID)
	w.RestartMH(mhID)

	if got := w.Stats.JournalTruncations.Value(); got != 1 {
		t.Errorf("JournalTruncations = %d, want 1", got)
	}
	// The verified prefix is two records; both were issued by the dead
	// incarnation, so the reboot filter discards them — but it must see
	// exactly those two, nothing corrupt, nothing past the corruption.
	if got := w.Stats.OfflineDroppedStale.Value(); got != 2 {
		t.Errorf("OfflineDroppedStale = %d, want 2 (the verified prefix)", got)
	}
	if rest := w.store.offline[mhID]; len(rest) != 0 {
		t.Errorf("store still holds %d journal bytes after reboot drained it", len(rest))
	}
}

// refOfflineLog is how the offline journal was first written, kept here
// as the reference: each message encoded on its own, then framed by a
// copy of the original record writer (hash/fnv's FNV-64a).
func refOfflineLog(queue []msg.Message) []byte {
	var log []byte
	for _, m := range queue {
		body, err := msg.Encode(m)
		if err != nil {
			continue
		}
		var hdr [journalHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
		h := fnv.New64a()
		h.Write(body)
		binary.BigEndian.PutUint64(hdr[4:12], h.Sum64())
		log = append(append(log, hdr[:]...), body...)
	}
	return log
}

// notWire is a message the codec refuses: the journal skips it.
type notWire struct{}

func (notWire) Kind() msg.Kind { return msg.KindInvalid }
func (notWire) String() string { return "not-wire" }

// TestOfflineJournalMatchesReference: persistOffline, which rewrites a
// host's log over its own array and encodes each record straight into it,
// writes the very bytes the reference composition does — for random
// queues that grow, shrink, empty and hold messages the codec refuses.
func TestOfflineJournalMatchesReference(t *testing.T) {
	w := NewWorld(recoveryConfig(1))
	rng := rand.New(rand.NewSource(1))
	var queue []msg.Message
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			payload := make([]byte, rng.Intn(48))
			rng.Read(payload)
			queue = append(queue, msg.Request{Req: ids.RequestID{Origin: 3, Seq: uint32(step)},
				Server: ids.Server(1 + rng.Intn(3)), Payload: payload, Inc: ids.Incarnation(rng.Intn(3))})
		case r < 6:
			queue = append(queue, msg.BatchCommit{MH: 3, Count: uint32(rng.Intn(9))})
		case r < 7:
			queue = append(queue, notWire{})
		case r < 9:
			if len(queue) > 0 {
				queue = queue[rng.Intn(len(queue)):]
			}
		default:
			queue = nil
		}
		w.persistOffline(3, queue)
		got, stored := w.store.offline[3]
		if want := refOfflineLog(queue); !bytes.Equal(got, want) || stored != (len(queue) > 0) {
			t.Fatalf("step %d, %d queued: log %x (stored %v), reference %x", step, len(queue), got, stored, want)
		}
	}
}

// TestOfflineJournalMovesWithDetachedHost: DetachMH takes the log out of
// the store it leaves, so neither world's later writes reach into the
// other's: the source world's next write for the id starts a new array,
// and the destination's rewrites stay in the moved one.
func TestOfflineJournalMovesWithDetachedHost(t *testing.T) {
	a, b := NewWorld(recoveryConfig(1)), NewWorld(recoveryConfig(1))
	h := a.AddMH(1, 1)
	a.RunUntil(200 * time.Millisecond)
	a.Disconnect(1)
	for i := 0; i < 3; i++ {
		h.IssueRequest(1, []byte{byte(i)})
	}
	h, active := a.DetachMH(1)
	if _, kept := a.store.offline[1]; kept {
		t.Fatal("the source store kept the detached host's log")
	}
	b.AttachMH(h, 1, active)
	moved := b.store.offline[1]
	want := bytes.Clone(moved)
	if len(want) == 0 {
		t.Fatal("the log did not move with the host")
	}

	a.persistOffline(1, []msg.Message{msg.Request{Req: ids.RequestID{Origin: 1, Seq: 99}, Server: 1}})
	if !bytes.Equal(moved, want) {
		t.Error("a write in the source world changed the moved log")
	}
	if src := a.store.offline[1]; &src[:1][0] == &moved[:1][0] {
		t.Error("the source world's new log shares the moved array")
	}
	srcWant := bytes.Clone(a.store.offline[1])
	h.IssueRequest(1, []byte{3})
	if got := b.store.offline[1]; !bytes.Equal(got, refOfflineLog(h.offline)) || !bytes.Equal(got[:len(want)], want) {
		t.Errorf("destination log after one more queued request: %x", got)
	}
	if !bytes.Equal(a.store.offline[1], srcWant) {
		t.Error("a write in the destination world changed the source's log")
	}
}
