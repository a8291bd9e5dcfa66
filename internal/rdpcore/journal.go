package rdpcore

import (
	"encoding/binary"
	"hash/fnv"
)

// This file implements the checksummed record log used by the
// byte-serialized journals in the stable store (the E17 offline queue
// and the E18 reclaim-memo log). Each record is framed as
//
//	u32 body length | u64 FNV-64a of body | body
//
// so a torn or bit-flipped write is detected on replay: the scan stops
// at the first record whose frame or checksum does not verify and
// discards it together with everything after it (a corrupt prefix
// cannot vouch for its suffix — later records may have been relocated
// by the same failure). Recovery therefore yields the longest verified
// prefix, mirroring how production write-ahead logs truncate at the
// first bad record.

const journalHeaderLen = 4 + 8

// journalOpen starts a record at the end of log: it reserves the header,
// and the caller appends the body after it and seals the record with
// journalSeal(log, at), at being len(log) before the call. It is the one
// record framer: journalAppend frames a body it is given (a replay's
// verified prefix), and the writers — World.persistOffline and
// MSSNode.persistReclaim — encode each body straight into their log.
func journalOpen(log []byte) []byte {
	return append(log, make([]byte, journalHeaderLen)...)
}

// journalSeal fills in the header of the record that starts at at and
// runs to the end of log.
func journalSeal(log []byte, at int) {
	body := log[at+journalHeaderLen:]
	h := fnv.New64a()
	h.Write(body)
	binary.BigEndian.PutUint32(log[at:], uint32(len(body)))
	binary.BigEndian.PutUint64(log[at+4:], h.Sum64())
}

// journalAppend frames body as one checksummed record at the end of
// log and returns the grown log.
func journalAppend(log []byte, body []byte) []byte {
	at := len(log)
	log = append(journalOpen(log), body...)
	journalSeal(log, at)
	return log
}

// journalScan walks the log and returns every record body up to (not
// including) the first corrupt or truncated record. The returned bodies
// alias the log. truncated reports whether anything was discarded.
func journalScan(log []byte) (records [][]byte, truncated bool) {
	for len(log) > 0 {
		if len(log) < journalHeaderLen {
			return records, true
		}
		n := int(binary.BigEndian.Uint32(log[0:4]))
		sum := binary.BigEndian.Uint64(log[4:12])
		if n > len(log)-journalHeaderLen {
			return records, true
		}
		body := log[journalHeaderLen : journalHeaderLen+n]
		h := fnv.New64a()
		h.Write(body)
		if h.Sum64() != sum {
			return records, true
		}
		records = append(records, body)
		log = log[journalHeaderLen+n:]
	}
	return records, false
}
