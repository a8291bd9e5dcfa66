package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ids"
)

// Wire format: one version byte, one kind byte, then the message fields
// in declaration order. Integers are big-endian; byte slices and lists
// are length-prefixed with a uint32. The format is intentionally simple:
// the simulator moves millions of messages and the codec sits on the hot
// path of the livenet runtime.
//
// Two encode entry points exist: Encode allocates a fresh buffer, and
// AppendEncode appends to a caller-owned one so steady-state encoding
// reuses storage. Decode copies every variable-length field out of its
// input, so a transport may recycle the frame buffer as soon as it
// returns.
const codecVersion = 1

// Codec errors. ErrTruncated and ErrBadMessage are matched by callers
// that inject corruption in tests.
var (
	ErrBadVersion = errors.New("msg: unsupported codec version")
	ErrBadKind    = errors.New("msg: unknown message kind")
	ErrTruncated  = errors.New("msg: truncated message")
	ErrTrailing   = errors.New("msg: trailing bytes after message")
	ErrBadNesting = errors.New("msg: link frame may not nest a link-layer message")
)

// maxSliceLen bounds decoded slice lengths to keep a corrupted length
// prefix from causing a huge allocation.
const maxSliceLen = 1 << 24

// Encode serializes a message into a fresh buffer. It never fails for
// messages constructed through this package's types; the error return
// guards against a user-defined Message implementation with an unknown
// kind.
func Encode(m Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 64), m)
}

// AppendEncode serializes a message, appending to dst (which may be
// nil). It returns the extended buffer, so a caller that recycles its
// buffer across messages encodes without allocating.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	e := encoder{buf: dst}
	if err := e.message(m); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// message appends one full version+kind+fields encoding.
func (e *encoder) message(m Message) error {
	e.u8(codecVersion)
	e.u8(uint8(m.Kind()))
	switch v := m.(type) {
	case Join:
		e.u32(uint32(v.MH))
	case Leave:
		e.u32(uint32(v.MH))
	case Greet:
		e.u32(uint32(v.MH))
		e.u32(uint32(v.OldMSS))
		e.inc(v.Inc)
	case Request:
		e.req(v.Req)
		e.u32(uint32(v.Server))
		e.bytes(v.Payload)
		e.inc(v.Inc)
	case ResultDeliver:
		e.req(v.Req)
		e.bytes(v.Payload)
		e.bool(v.DelPref)
		e.inc(v.Inc)
	case AckMH:
		e.u32(uint32(v.MH))
		e.req(v.Req)
		e.bool(v.HaveOutstanding)
	case Dereg:
		e.u32(uint32(v.MH))
		e.u32(uint32(v.NewMSS))
	case DeregAck:
		e.u32(uint32(v.MH))
		e.pref(v.Pref)
		e.inc(v.Inc)
	case RequestForward:
		e.proxy(v.Proxy)
		e.req(v.Req)
		e.u32(uint32(v.Server))
		e.bytes(v.Payload)
		e.inc(v.Inc)
	case UpdateCurrentLoc:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.u32(uint32(v.NewLoc))
	case ResultForward:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.req(v.Req)
		e.bytes(v.Payload)
		e.bool(v.DelPref)
		e.inc(v.Inc)
	case AckForward:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.req(v.Req)
		e.bool(v.DelProxy)
	case DelPrefOnly:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
	case ServerRequest:
		e.proxy(v.Proxy)
		e.req(v.Req)
		e.bytes(v.Payload)
	case ServerResult:
		e.proxy(v.Proxy)
		e.req(v.Req)
		e.bytes(v.Payload)
	case ServerAck:
		e.req(v.Req)
	case MIPRegister:
		e.u32(uint32(v.MH))
		e.u32(uint32(v.CareOf))
	case MIPData:
		e.u32(uint32(v.MH))
		e.req(v.Req)
		e.bytes(v.Payload)
	case MIPTunnel:
		e.u32(uint32(v.MH))
		e.req(v.Req)
		e.bytes(v.Payload)
	case ImageTransfer:
		e.u32(uint32(v.MH))
		e.reqs(v.Pending)
		e.u32(uint32(len(v.Results)))
		for _, b := range v.Results {
			e.bytes(b)
		}
	case TISQuery:
		e.u64(v.QID)
		e.u32(uint32(v.Origin))
		e.u8(uint8(v.Op))
		e.u32(v.Region)
		e.u32(uint32(v.Value))
		e.u8(v.Hops)
		e.proxy(v.Proxy)
		e.req(v.Req)
		e.bytes(v.Data)
	case TISDeliver:
		e.u32(uint32(v.Member))
		e.u32(v.Group)
		e.u64(v.Seq)
		e.bytes(v.Data)
	case TISReply:
		e.u64(v.QID)
		e.u32(v.Region)
		e.u32(uint32(v.Value))
		e.u64(uint64(v.Stamp))
		e.u8(v.Hops)
	case LinkFrame:
		if v.Inner == nil {
			return fmt.Errorf("%w: nil inner message", ErrBadKind)
		}
		if k := v.Inner.Kind(); k == KindLinkFrame || k == KindLinkAck {
			return ErrBadNesting
		}
		// The inner message is encoded in place behind a length
		// placeholder (patched below) instead of through a recursive
		// Encode, so framing costs no intermediate buffer.
		e.u64(v.Seq)
		lenAt := len(e.buf)
		e.u32(0)
		if err := e.message(v.Inner); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(e.buf[lenAt:], uint32(len(e.buf)-lenAt-4))
	case LinkAck:
		e.u64(v.Seq)
	case RegConfirm:
		e.u32(uint32(v.MH))
	case Busy:
		e.req(v.Req)
	case Admit:
		e.req(v.Req)
	case MigOffer:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.u32(v.Pending)
		e.u32(v.HostLoad)
		e.bool(v.LoadCheck)
	case MigCommit:
		e.proxy(v.Proxy)
		e.proxy(v.NewProxy)
		e.u32(uint32(v.MH))
		e.bool(v.Accept)
	case MigState:
		e.proxy(v.Proxy)
		e.proxy(v.NewProxy)
		e.u32(uint32(v.MH))
		e.u32(uint32(v.CurrentLoc))
		e.u32(uint32(len(v.Reqs)))
		for _, r := range v.Reqs {
			e.req(r.Req)
			e.u32(uint32(r.Server))
			e.bytes(r.Payload)
			e.bytes(r.Result)
			e.bool(r.HasResult)
			e.bool(r.Forwarded)
			e.batch(r.Batch)
			e.inc(r.Inc)
		}
		e.u32(uint32(len(v.Batches)))
		for _, b := range v.Batches {
			e.batch(b.Batch)
			e.u32(b.Expected)
			e.bool(b.Committed)
			e.bool(b.Released)
			e.bool(b.Aborted)
			e.inc(b.Inc)
			e.reqs(b.Members)
		}
		e.inc(v.LeaseInc)
	case PrefRedirect:
		e.u32(uint32(v.MH))
		e.proxy(v.OldProxy)
		e.proxy(v.NewProxy)
		e.req(v.Req)
		e.bool(v.Confirm)
	case MigGC:
		e.proxy(v.OldProxy)
		e.proxy(v.NewProxy)
		e.u32(uint32(v.MH))
	case BatchOpen:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.batch(v.Batch)
		e.inc(v.Inc)
	case BatchItem:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.batch(v.Batch)
		e.req(v.Req)
		e.u32(uint32(v.Server))
		e.bytes(v.Payload)
		e.inc(v.Inc)
	case BatchCommit:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.batch(v.Batch)
		e.u32(v.Count)
	case BatchAbort:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.batch(v.Batch)
		e.reqs(v.Reqs)
	case Register:
		e.u32(uint32(v.MH))
		e.inc(v.Inc)
	case LeaseHeartbeat:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.inc(v.Inc)
	case ReclaimMemo:
		e.proxy(v.Proxy)
		e.u32(uint32(v.MH))
		e.inc(v.Inc)
	case WtpData:
		e.u64(v.Epoch)
		e.u64(v.Seq)
		e.u32(uint32(len(v.Inner)))
		for _, in := range v.Inner {
			if in == nil {
				return fmt.Errorf("%w: nil inner message", ErrBadKind)
			}
			if k := in.Kind(); k == KindLinkFrame || k == KindLinkAck || k == KindWtpData || k == KindWtpAck {
				return ErrBadNesting
			}
			// Same in-place framing trick as LinkFrame: each inner
			// message sits behind a patched length prefix, so a
			// coalesced frame costs no intermediate buffers.
			lenAt := len(e.buf)
			e.u32(0)
			if err := e.message(in); err != nil {
				return err
			}
			binary.BigEndian.PutUint32(e.buf[lenAt:], uint32(len(e.buf)-lenAt-4))
		}
	case WtpAck:
		e.u64(v.Epoch)
		e.u64(v.Cum)
		e.u32(uint32(len(v.Sacks)))
		for _, s := range v.Sacks {
			e.u64(s)
		}
	case GroupUpdateLoc:
		e.proxy(v.Proxy)
		e.u32(uint32(v.NewLoc))
		e.bytes(v.Members)
	case GroupAckForward:
		e.proxy(v.Proxy)
		e.bytes(v.Members)
		e.u32(uint32(len(v.Seqs)))
		for _, s := range v.Seqs {
			e.u32(s)
		}
	default:
		return fmt.Errorf("%w: %T", ErrBadKind, m)
	}
	return nil
}

// Per-kind field decoders. Each reads exactly the fields its encode
// case wrote; errors latch in the decoder.

func decJoin(d *decoder) Join   { return Join{MH: ids.MH(d.u32())} }
func decLeave(d *decoder) Leave { return Leave{MH: ids.MH(d.u32())} }
func decGreet(d *decoder) Greet {
	return Greet{MH: ids.MH(d.u32()), OldMSS: ids.MSS(d.u32()), Inc: d.inc()}
}

func decRequest(d *decoder) Request {
	return Request{Req: d.req(), Server: ids.Server(d.u32()), Payload: d.bytes(), Inc: d.inc()}
}

func decResultDeliver(d *decoder) ResultDeliver {
	return ResultDeliver{Req: d.req(), Payload: d.bytes(), DelPref: d.bool(), Inc: d.inc()}
}

func decAckMH(d *decoder) AckMH {
	return AckMH{MH: ids.MH(d.u32()), Req: d.req(), HaveOutstanding: d.bool()}
}

func decDereg(d *decoder) Dereg {
	return Dereg{MH: ids.MH(d.u32()), NewMSS: ids.MSS(d.u32())}
}

func decDeregAck(d *decoder) DeregAck {
	return DeregAck{MH: ids.MH(d.u32()), Pref: d.pref(), Inc: d.inc()}
}

func decRequestForward(d *decoder) RequestForward {
	return RequestForward{Proxy: d.proxy(), Req: d.req(), Server: ids.Server(d.u32()), Payload: d.bytes(), Inc: d.inc()}
}

func decUpdateCurrentLoc(d *decoder) UpdateCurrentLoc {
	return UpdateCurrentLoc{Proxy: d.proxy(), MH: ids.MH(d.u32()), NewLoc: ids.MSS(d.u32())}
}

func decResultForward(d *decoder) ResultForward {
	return ResultForward{Proxy: d.proxy(), MH: ids.MH(d.u32()), Req: d.req(), Payload: d.bytes(), DelPref: d.bool(), Inc: d.inc()}
}

func decAckForward(d *decoder) AckForward {
	return AckForward{Proxy: d.proxy(), MH: ids.MH(d.u32()), Req: d.req(), DelProxy: d.bool()}
}

func decDelPrefOnly(d *decoder) DelPrefOnly {
	return DelPrefOnly{Proxy: d.proxy(), MH: ids.MH(d.u32())}
}

func decServerRequest(d *decoder) ServerRequest {
	return ServerRequest{Proxy: d.proxy(), Req: d.req(), Payload: d.bytes()}
}

func decServerResult(d *decoder) ServerResult {
	return ServerResult{Proxy: d.proxy(), Req: d.req(), Payload: d.bytes()}
}

func decServerAck(d *decoder) ServerAck { return ServerAck{Req: d.req()} }

func decMIPRegister(d *decoder) MIPRegister {
	return MIPRegister{MH: ids.MH(d.u32()), CareOf: ids.MSS(d.u32())}
}

func decMIPData(d *decoder) MIPData {
	return MIPData{MH: ids.MH(d.u32()), Req: d.req(), Payload: d.bytes()}
}

func decMIPTunnel(d *decoder) MIPTunnel {
	return MIPTunnel{MH: ids.MH(d.u32()), Req: d.req(), Payload: d.bytes()}
}

func decImageTransfer(d *decoder) ImageTransfer {
	it := ImageTransfer{MH: ids.MH(d.u32()), Pending: d.reqs()}
	n := d.len()
	if n > 0 && d.err == nil {
		it.Results = make([][]byte, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		it.Results = append(it.Results, d.bytes())
	}
	return it
}

func decTISQuery(d *decoder) TISQuery {
	return TISQuery{
		QID:    d.u64(),
		Origin: ids.Server(d.u32()),
		Op:     TISOp(d.u8()),
		Region: d.u32(),
		Value:  int32(d.u32()),
		Hops:   d.u8(),
		Proxy:  d.proxy(),
		Req:    d.req(),
		Data:   d.bytes(),
	}
}

func decTISDeliver(d *decoder) TISDeliver {
	return TISDeliver{
		Member: ids.MH(d.u32()),
		Group:  d.u32(),
		Seq:    d.u64(),
		Data:   d.bytes(),
	}
}

func decTISReply(d *decoder) TISReply {
	return TISReply{
		QID:    d.u64(),
		Region: d.u32(),
		Value:  int32(d.u32()),
		Stamp:  int64(d.u64()),
		Hops:   d.u8(),
	}
}

// decLinkFrame decodes the frame header and recursively decodes the
// inner message (which always allocates; link frames are not on the
// zero-alloc path).
func decLinkFrame(d *decoder) (LinkFrame, error) {
	seq := d.u64()
	body := d.bytes()
	if d.err != nil {
		return LinkFrame{}, d.err
	}
	inner, err := Decode(body)
	if err != nil {
		return LinkFrame{}, fmt.Errorf("msg: link frame inner: %w", err)
	}
	if k := inner.Kind(); k == KindLinkFrame || k == KindLinkAck {
		return LinkFrame{}, ErrBadNesting
	}
	return LinkFrame{Seq: seq, Inner: inner}, nil
}

func decLinkAck(d *decoder) LinkAck { return LinkAck{Seq: d.u64()} }

func decRegConfirm(d *decoder) RegConfirm { return RegConfirm{MH: ids.MH(d.u32())} }
func decBusy(d *decoder) Busy             { return Busy{Req: d.req()} }
func decAdmit(d *decoder) Admit           { return Admit{Req: d.req()} }

func decMigOffer(d *decoder) MigOffer {
	return MigOffer{Proxy: d.proxy(), MH: ids.MH(d.u32()), Pending: d.u32(), HostLoad: d.u32(), LoadCheck: d.bool()}
}

func decMigCommit(d *decoder) MigCommit {
	return MigCommit{Proxy: d.proxy(), NewProxy: d.proxy(), MH: ids.MH(d.u32()), Accept: d.bool()}
}

func decMigState(d *decoder) MigState {
	ms := MigState{Proxy: d.proxy(), NewProxy: d.proxy(), MH: ids.MH(d.u32()), CurrentLoc: ids.MSS(d.u32())}
	n := d.len()
	if n > 0 && d.err == nil {
		ms.Reqs = make([]ProxyReq, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		ms.Reqs = append(ms.Reqs, ProxyReq{
			Req:       d.req(),
			Server:    ids.Server(d.u32()),
			Payload:   d.bytes(),
			Result:    d.bytes(),
			HasResult: d.bool(),
			Forwarded: d.bool(),
			Batch:     d.batch(),
			Inc:       d.inc(),
		})
	}
	n = d.len()
	if n > 0 && d.err == nil {
		ms.Batches = make([]ProxyBatch, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		ms.Batches = append(ms.Batches, ProxyBatch{
			Batch:     d.batch(),
			Expected:  d.u32(),
			Committed: d.bool(),
			Released:  d.bool(),
			Aborted:   d.bool(),
			Inc:       d.inc(),
			Members:   d.reqs(),
		})
	}
	ms.LeaseInc = d.inc()
	return ms
}

func decPrefRedirect(d *decoder) PrefRedirect {
	return PrefRedirect{MH: ids.MH(d.u32()), OldProxy: d.proxy(), NewProxy: d.proxy(), Req: d.req(), Confirm: d.bool()}
}

func decMigGC(d *decoder) MigGC {
	return MigGC{OldProxy: d.proxy(), NewProxy: d.proxy(), MH: ids.MH(d.u32())}
}

func decBatchOpen(d *decoder) BatchOpen {
	return BatchOpen{Proxy: d.proxy(), MH: ids.MH(d.u32()), Batch: d.batch(), Inc: d.inc()}
}

func decBatchItem(d *decoder) BatchItem {
	return BatchItem{
		Proxy:   d.proxy(),
		MH:      ids.MH(d.u32()),
		Batch:   d.batch(),
		Req:     d.req(),
		Server:  ids.Server(d.u32()),
		Payload: d.bytes(),
		Inc:     d.inc(),
	}
}

func decBatchCommit(d *decoder) BatchCommit {
	return BatchCommit{Proxy: d.proxy(), MH: ids.MH(d.u32()), Batch: d.batch(), Count: d.u32()}
}

func decBatchAbort(d *decoder) BatchAbort {
	return BatchAbort{Proxy: d.proxy(), MH: ids.MH(d.u32()), Batch: d.batch(), Reqs: d.reqs()}
}

func decRegister(d *decoder) Register {
	return Register{MH: ids.MH(d.u32()), Inc: d.inc()}
}

func decLeaseHeartbeat(d *decoder) LeaseHeartbeat {
	return LeaseHeartbeat{Proxy: d.proxy(), MH: ids.MH(d.u32()), Inc: d.inc()}
}

func decReclaimMemo(d *decoder) ReclaimMemo {
	return ReclaimMemo{Proxy: d.proxy(), MH: ids.MH(d.u32()), Inc: d.inc()}
}

// decWtpData decodes the frame header and recursively decodes each
// coalesced inner message (which always allocates; windowed frames, like
// link frames, are not on the zero-alloc path).
func decWtpData(d *decoder) (WtpData, error) {
	f := WtpData{Epoch: d.u64(), Seq: d.u64()}
	n := d.len()
	if n > 0 && d.err == nil {
		f.Inner = make([]Message, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		body := d.bytes()
		if d.err != nil {
			break
		}
		in, err := Decode(body)
		if err != nil {
			return WtpData{}, fmt.Errorf("msg: wtp frame inner: %w", err)
		}
		if k := in.Kind(); k == KindLinkFrame || k == KindLinkAck || k == KindWtpData || k == KindWtpAck {
			return WtpData{}, ErrBadNesting
		}
		f.Inner = append(f.Inner, in)
	}
	if d.err != nil {
		return WtpData{}, d.err
	}
	return f, nil
}

func decWtpAck(d *decoder) WtpAck {
	a := WtpAck{Epoch: d.u64(), Cum: d.u64()}
	n := d.len()
	if n > 0 && d.err == nil {
		a.Sacks = make([]uint64, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		a.Sacks = append(a.Sacks, d.u64())
	}
	return a
}

func decGroupUpdateLoc(d *decoder) GroupUpdateLoc {
	return GroupUpdateLoc{Proxy: d.proxy(), NewLoc: ids.MSS(d.u32()), Members: d.bytes()}
}

func decGroupAckForward(d *decoder) GroupAckForward {
	g := GroupAckForward{Proxy: d.proxy(), Members: d.bytes()}
	n := d.len()
	if n > 0 && d.err == nil {
		g.Seqs = make([]uint32, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		g.Seqs = append(g.Seqs, d.u32())
	}
	return g
}

// Decode parses a message previously produced by Encode. It rejects
// unknown versions and kinds, truncated input, and trailing bytes. All
// variable-length fields are copied, so the result does not retain b.
func Decode(b []byte) (Message, error) {
	d := decoder{buf: b}
	if v := d.u8(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	kind := Kind(d.u8())
	var m Message
	switch kind {
	case KindJoin:
		m = decJoin(&d)
	case KindLeave:
		m = decLeave(&d)
	case KindGreet:
		m = decGreet(&d)
	case KindRequest:
		m = decRequest(&d)
	case KindResultDeliver:
		m = decResultDeliver(&d)
	case KindAckMH:
		m = decAckMH(&d)
	case KindDereg:
		m = decDereg(&d)
	case KindDeregAck:
		m = decDeregAck(&d)
	case KindRequestForward:
		m = decRequestForward(&d)
	case KindUpdateCurrentLoc:
		m = decUpdateCurrentLoc(&d)
	case KindResultForward:
		m = decResultForward(&d)
	case KindAckForward:
		m = decAckForward(&d)
	case KindDelPrefOnly:
		m = decDelPrefOnly(&d)
	case KindServerRequest:
		m = decServerRequest(&d)
	case KindServerResult:
		m = decServerResult(&d)
	case KindServerAck:
		m = decServerAck(&d)
	case KindMIPRegister:
		m = decMIPRegister(&d)
	case KindMIPData:
		m = decMIPData(&d)
	case KindMIPTunnel:
		m = decMIPTunnel(&d)
	case KindImageTransfer:
		m = decImageTransfer(&d)
	case KindTISQuery:
		m = decTISQuery(&d)
	case KindTISDeliver:
		m = decTISDeliver(&d)
	case KindTISReply:
		m = decTISReply(&d)
	case KindLinkFrame:
		lf, err := decLinkFrame(&d)
		if err != nil {
			return nil, err
		}
		m = lf
	case KindLinkAck:
		m = decLinkAck(&d)
	case KindRegConfirm:
		m = decRegConfirm(&d)
	case KindBusy:
		m = decBusy(&d)
	case KindAdmit:
		m = decAdmit(&d)
	case KindMigOffer:
		m = decMigOffer(&d)
	case KindMigCommit:
		m = decMigCommit(&d)
	case KindMigState:
		m = decMigState(&d)
	case KindPrefRedirect:
		m = decPrefRedirect(&d)
	case KindMigGC:
		m = decMigGC(&d)
	case KindBatchOpen:
		m = decBatchOpen(&d)
	case KindBatchItem:
		m = decBatchItem(&d)
	case KindBatchCommit:
		m = decBatchCommit(&d)
	case KindBatchAbort:
		m = decBatchAbort(&d)
	case KindRegister:
		m = decRegister(&d)
	case KindLeaseHeartbeat:
		m = decLeaseHeartbeat(&d)
	case KindReclaimMemo:
		m = decReclaimMemo(&d)
	case KindWtpData:
		f, err := decWtpData(&d)
		if err != nil {
			return nil, err
		}
		m = f
	case KindWtpAck:
		m = decWtpAck(&d)
	case KindGroupUpdateLoc:
		m = decGroupUpdateLoc(&d)
	case KindGroupAckForward:
		m = decGroupAckForward(&d)
	default:
		if d.err != nil {
			return nil, d.err
		}
		return nil, fmt.Errorf("%w: %d", ErrBadKind, uint8(kind))
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != d.off {
		return nil, ErrTrailing
	}
	return m, nil
}

// encoder appends fields to a buffer.
type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) req(r ids.RequestID) {
	e.u32(uint32(r.Origin))
	e.u32(r.Seq)
}

func (e *encoder) reqs(rs []ids.RequestID) {
	e.u32(uint32(len(rs)))
	for _, r := range rs {
		e.req(r)
	}
}

func (e *encoder) proxy(p ids.ProxyID) {
	e.u32(uint32(p.Host))
	e.u32(p.Seq)
}

func (e *encoder) pref(p Pref) {
	e.proxy(p.Proxy)
	e.bool(p.RKpR)
}

func (e *encoder) batch(b ids.BatchID) {
	e.u32(uint32(b.Origin))
	e.u32(b.Seq)
}

func (e *encoder) inc(i ids.Incarnation) { e.u32(uint32(i)) }

// decoder consumes fields from a buffer, latching the first error.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

// len decodes a u32 length prefix, bounding it against both the sanity
// cap and the remaining input so corrupted prefixes fail fast.
func (d *decoder) len() int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if n > maxSliceLen || int(n) > len(d.buf)-d.off {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.len()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

func (d *decoder) req() ids.RequestID {
	return ids.RequestID{Origin: ids.MH(d.u32()), Seq: d.u32()}
}

// reqs decodes a length-prefixed request list; an empty one is nil.
func (d *decoder) reqs() []ids.RequestID {
	n := d.len()
	if n == 0 {
		return nil
	}
	rs := make([]ids.RequestID, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		rs = append(rs, d.req())
	}
	return rs
}

func (d *decoder) proxy() ids.ProxyID {
	return ids.ProxyID{Host: ids.MSS(d.u32()), Seq: d.u32()}
}

func (d *decoder) pref() Pref {
	return Pref{Proxy: d.proxy(), RKpR: d.bool()}
}

func (d *decoder) batch() ids.BatchID {
	return ids.BatchID{Origin: ids.MH(d.u32()), Seq: d.u32()}
}

func (d *decoder) inc() ids.Incarnation { return ids.Incarnation(d.u32()) }

// encBufPool recycles scratch encode buffers across goroutines for the
// encode-and-discard and encode-and-write paths (WireSize, transports).
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// GetBuffer returns a pooled scratch buffer (length 0) for use with
// AppendEncode. Return it with PutBuffer once the encoding has been
// consumed.
func GetBuffer() *[]byte { return encBufPool.Get().(*[]byte) }

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must
// not retain any view of the buffer afterwards.
func PutBuffer(b *[]byte) {
	*b = (*b)[:0]
	encBufPool.Put(b)
}

// WireSize returns the encoded size of a message in bytes without
// retaining the encoding. It is used by the metrics layer to account
// hand-off state volume (experiment E6); the scratch buffer is pooled,
// so measuring costs no allocation in the steady state.
func WireSize(m Message) int {
	bp := encBufPool.Get().(*[]byte)
	b, err := AppendEncode((*bp)[:0], m)
	n := len(b)
	*bp = b[:0]
	encBufPool.Put(bp)
	if err != nil {
		return 0
	}
	return n
}
