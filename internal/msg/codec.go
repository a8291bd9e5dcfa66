package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ids"
)

// Wire format: one version byte, one kind byte, then the message fields
// in the order the kind's code method names them. Integers are
// big-endian; byte slices and lists are length-prefixed with a uint32.
// The format is intentionally simple: the simulator moves millions of
// messages and the codec sits on the hot path of the livenet runtime.
//
// Each kind names its fields once, in a code method walked by a coder in
// one of three modes: sizing (WireSize), appending (Encode, AppendEncode)
// and reading (Decode). AppendEncode appends to a caller-owned buffer,
// so steady-state encoding reuses storage. Decode copies every
// variable-length field out of its input, so a transport may recycle the
// frame buffer as soon as it returns.
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
	c := coder{mode: appending, buf: dst}
	c.message(m)
	if c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// WireSize returns the encoded size of a message in bytes. It walks the
// fields without encoding them, so it costs no allocation. The metrics
// layer accounts hand-off and migration state volume with it (E6, E12),
// and wtp packs frames to the MTU by it. It panics on a message Encode
// refuses — a type the codec does not know, a nil message, a link frame
// nesting framing — rather than return a size that looks valid.
func WireSize(m Message) int {
	c := coder{mode: sizing}
	c.message(m)
	if c.err != nil {
		panic(fmt.Sprintf("msg: WireSize: %v", c.err))
	}
	return c.off
}

// Decode parses a message previously produced by Encode. It rejects
// unknown versions and kinds, truncated input, and trailing bytes. All
// variable-length fields are copied, so the result does not retain b.
func Decode(b []byte) (Message, error) {
	c := coder{mode: reading, buf: b}
	m := c.message(nil)
	if c.err == nil && c.off != len(b) {
		c.err = ErrTrailing
	}
	if c.err != nil {
		return nil, c.err
	}
	return m, nil
}

type mode uint8

const (
	sizing mode = iota
	appending
	reading
)

// coder walks one message's fields in one mode. Every field primitive
// takes a pointer to the field: sizing counts its bytes in off,
// appending writes it to buf, and reading fills it from buf at off. The
// first error latches; reading, later primitives then do nothing.
type coder struct {
	mode mode
	buf  []byte
	off  int
	err  error
}

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// header codes the version and kind bytes that open every message,
// refusing a version it reads that is not codecVersion.
func (c *coder) header(kind *Kind) {
	version := uint8(codecVersion)
	u8(c, &version)
	if c.mode == reading && c.err == nil && version != codecVersion {
		c.fail(fmt.Errorf("%w: %d", ErrBadVersion, version))
	}
	u8(c, kind)
}

// message codes one whole message: the version and kind bytes, then the
// kind's fields. Writing, it codes m; reading, it ignores m and returns
// the message the kind byte names, read into that kind's zero value.
func (c *coder) message(m Message) Message {
	kind := KindInvalid
	if c.mode != reading {
		if m == nil {
			c.fail(fmt.Errorf("%w: nil message", ErrBadKind))
			return nil
		}
		kind = m.Kind()
	}
	c.header(&kind)
	if c.mode == reading {
		if c.err != nil {
			return nil
		}
		if !kind.Valid() {
			c.fail(fmt.Errorf("%w: %d", ErrBadKind, kind))
			return nil
		}
		m = kinds[kind].zero
	}
	switch v := m.(type) {
	case Join:
		return v.code(c)
	case Leave:
		return v.code(c)
	case Greet:
		return v.code(c)
	case Request:
		return v.code(c)
	case ResultDeliver:
		return v.code(c)
	case AckMH:
		return v.code(c)
	case Dereg:
		return v.code(c)
	case DeregAck:
		return v.code(c)
	case RequestForward:
		return v.code(c)
	case UpdateCurrentLoc:
		return v.code(c)
	case ResultForward:
		return v.code(c)
	case AckForward:
		return v.code(c)
	case DelPrefOnly:
		return v.code(c)
	case ServerRequest:
		return v.code(c)
	case ServerResult:
		return v.code(c)
	case ServerAck:
		return v.code(c)
	case MIPRegister:
		return v.code(c)
	case MIPData:
		return v.code(c)
	case MIPTunnel:
		return v.code(c)
	case ImageTransfer:
		return v.code(c)
	case TISQuery:
		return v.code(c)
	case TISReply:
		return v.code(c)
	case TISDeliver:
		return v.code(c)
	case LinkFrame:
		return v.code(c)
	case LinkAck:
		return v.code(c)
	case RegConfirm:
		return v.code(c)
	case Busy:
		return v.code(c)
	case Admit:
		return v.code(c)
	case MigOffer:
		return v.code(c)
	case MigCommit:
		return v.code(c)
	case MigState:
		return v.code(c)
	case PrefRedirect:
		return v.code(c)
	case MigGC:
		return v.code(c)
	case BatchOpen:
		return v.code(c)
	case BatchItem:
		return v.code(c)
	case BatchCommit:
		return v.code(c)
	case BatchAbort:
		return v.code(c)
	case Register:
		return v.code(c)
	case LeaseHeartbeat:
		return v.code(c)
	case ReclaimMemo:
		return v.code(c)
	case WtpData:
		return v.code(c)
	case WtpAck:
		return v.code(c)
	case GroupUpdateLoc:
		return v.code(c)
	case GroupAckForward:
		return v.code(c)
	// What a substrate shows a listener (view.go) codes as what Keep
	// makes of it; reading never meets these.
	case View:
		return v.l.code(c)
	case *LinkFrame:
		return v.code(c)
	case *LinkAck:
		return v.code(c)
	case *WtpData:
		return v.code(c)
	case *WtpAck:
		return v.code(c)
	}
	c.fail(fmt.Errorf("%w: %T", ErrBadKind, m))
	return nil
}

// done ends a kind's walk. Reading, it returns the message its fields
// were read into; writing, nil, so sizing and encoding never box m.
func done[T Message](c *coder, m *T) Message {
	if c.mode != reading {
		return nil
	}
	return *m
}

// Per-kind field lists: each code method names its kind's fields once,
// in wire order.

func (m Join) code(c *coder) Message {
	u32(c, &m.MH)
	return done(c, &m)
}

func (m Leave) code(c *coder) Message {
	u32(c, &m.MH)
	return done(c, &m)
}

func (m Greet) code(c *coder) Message {
	u32(c, &m.MH)
	u32(c, &m.OldMSS)
	u32(c, &m.Inc)
	u32(c, &m.Seq)
	return done(c, &m)
}

func (m Request) code(c *coder) Message {
	c.req(&m.Req)
	u32(c, &m.Server)
	c.bytes(&m.Payload)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m ResultDeliver) code(c *coder) Message {
	c.req(&m.Req)
	c.bytes(&m.Payload)
	c.bool(&m.DelPref)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m AckMH) code(c *coder) Message {
	u32(c, &m.MH)
	c.req(&m.Req)
	c.bool(&m.HaveOutstanding)
	return done(c, &m)
}

func (m Dereg) code(c *coder) Message {
	u32(c, &m.MH)
	u32(c, &m.NewMSS)
	u32(c, &m.Inc)
	u32(c, &m.Seq)
	return done(c, &m)
}

// A stale deregack carries no pref, and a hand-over names no holder.
func (m DeregAck) code(c *coder) Message {
	u32(c, &m.MH)
	u32(c, &m.Inc)
	c.bool(&m.Stale)
	if m.Stale {
		u32(c, &m.Holder)
		u32(c, &m.Seq)
	} else {
		c.proxy(&m.Pref.Proxy)
		u32(c, &m.Pref.RKpR)
		u32(c, &m.Routed)
	}
	return done(c, &m)
}

func (m RequestForward) code(c *coder) Message {
	c.proxy(&m.Proxy)
	c.req(&m.Req)
	u32(c, &m.Server)
	c.bytes(&m.Payload)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m UpdateCurrentLoc) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	u32(c, &m.NewLoc)
	return done(c, &m)
}

func (m ResultForward) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	c.req(&m.Req)
	c.bytes(&m.Payload)
	c.bool(&m.DelPref)
	u32(c, &m.Mark)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m AckForward) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	c.req(&m.Req)
	c.bool(&m.DelProxy)
	return done(c, &m)
}

func (m DelPrefOnly) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	c.req(&m.Req)
	u32(c, &m.Mark)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m ServerRequest) code(c *coder) Message {
	c.proxy(&m.Proxy)
	c.req(&m.Req)
	c.bytes(&m.Payload)
	return done(c, &m)
}

func (m ServerResult) code(c *coder) Message {
	c.proxy(&m.Proxy)
	c.req(&m.Req)
	c.bytes(&m.Payload)
	return done(c, &m)
}

func (m ServerAck) code(c *coder) Message {
	c.req(&m.Req)
	return done(c, &m)
}

func (m MIPRegister) code(c *coder) Message {
	u32(c, &m.MH)
	u32(c, &m.CareOf)
	return done(c, &m)
}

func (m MIPData) code(c *coder) Message {
	u32(c, &m.MH)
	c.req(&m.Req)
	c.bytes(&m.Payload)
	return done(c, &m)
}

func (m MIPTunnel) code(c *coder) Message {
	u32(c, &m.MH)
	c.req(&m.Req)
	c.bytes(&m.Payload)
	return done(c, &m)
}

func (m ImageTransfer) code(c *coder) Message {
	u32(c, &m.MH)
	c.reqs(&m.Pending)
	for i := range list(c, &m.Results, 4) {
		c.bytes(&m.Results[i])
	}
	return done(c, &m)
}

func (m TISQuery) code(c *coder) Message {
	u64(c, &m.QID)
	u32(c, &m.Origin)
	u8(c, &m.Op)
	u32(c, &m.Region)
	u32(c, &m.Value)
	u8(c, &m.Hops)
	c.proxy(&m.Proxy)
	c.req(&m.Req)
	c.bytes(&m.Data)
	return done(c, &m)
}

func (m TISReply) code(c *coder) Message {
	u64(c, &m.QID)
	u32(c, &m.Region)
	u32(c, &m.Value)
	u64(c, &m.Stamp)
	u8(c, &m.Hops)
	return done(c, &m)
}

func (m TISDeliver) code(c *coder) Message {
	u32(c, &m.Member)
	u32(c, &m.Group)
	u64(c, &m.Seq)
	c.bytes(&m.Data)
	return done(c, &m)
}

func (m LinkFrame) code(c *coder) Message {
	u64(c, &m.Seq)
	c.inner(&m.Inner, false)
	return done(c, &m)
}

func (m LinkAck) code(c *coder) Message {
	u64(c, &m.Seq)
	return done(c, &m)
}

func (m RegConfirm) code(c *coder) Message {
	u32(c, &m.MH)
	return done(c, &m)
}

func (m Busy) code(c *coder) Message {
	c.req(&m.Req)
	return done(c, &m)
}

func (m Admit) code(c *coder) Message {
	c.req(&m.Req)
	return done(c, &m)
}

func (m MigOffer) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	u32(c, &m.Pending)
	u32(c, &m.HostLoad)
	c.bool(&m.LoadCheck)
	return done(c, &m)
}

func (m MigCommit) code(c *coder) Message {
	c.proxy(&m.Proxy)
	c.proxy(&m.NewProxy)
	u32(c, &m.MH)
	c.bool(&m.Accept)
	return done(c, &m)
}

func (m MigState) code(c *coder) Message {
	c.proxy(&m.Proxy)
	c.proxy(&m.NewProxy)
	u32(c, &m.MH)
	u32(c, &m.CurrentLoc)
	for i := range list(c, &m.Reqs, 34) {
		r := &m.Reqs[i]
		c.req(&r.Req)
		u32(c, &r.Server)
		c.bytes(&r.Payload)
		c.bytes(&r.Result)
		c.bool(&r.HasResult)
		c.bool(&r.Forwarded)
		c.batch(&r.Batch)
		u32(c, &r.Inc)
	}
	for i := range list(c, &m.Batches, 19) {
		b := &m.Batches[i]
		c.batch(&b.Batch)
		u32(c, &b.Expected)
		c.bool(&b.Committed)
		c.bool(&b.Released)
		c.bool(&b.Aborted)
		u32(c, &b.Inc)
	}
	for i := range list(c, &m.Floors, 12) {
		f := &m.Floors[i]
		u32(c, &f.MH)
		u32(c, &f.Seq)
		u32(c, &f.Inc)
	}
	u32(c, &m.Mark)
	u32(c, &m.MarkInc)
	u32(c, &m.LeaseInc)
	return done(c, &m)
}

func (m PrefRedirect) code(c *coder) Message {
	u32(c, &m.MH)
	c.proxy(&m.OldProxy)
	c.proxy(&m.NewProxy)
	c.req(&m.Req)
	c.bool(&m.Confirm)
	return done(c, &m)
}

func (m MigGC) code(c *coder) Message {
	c.proxy(&m.OldProxy)
	c.proxy(&m.NewProxy)
	u32(c, &m.MH)
	return done(c, &m)
}

func (m BatchOpen) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	c.batch(&m.Batch)
	u32(c, &m.Inc)
	u32(c, &m.Floor)
	return done(c, &m)
}

func (m BatchItem) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	c.batch(&m.Batch)
	c.req(&m.Req)
	u32(c, &m.Server)
	c.bytes(&m.Payload)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m BatchCommit) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	c.batch(&m.Batch)
	u32(c, &m.Count)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m BatchAbort) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	c.batch(&m.Batch)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m Register) code(c *coder) Message {
	u32(c, &m.MH)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m LeaseHeartbeat) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	u32(c, &m.Inc)
	return done(c, &m)
}

func (m ReclaimMemo) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.MH)
	return done(c, &m)
}

func (m WtpData) code(c *coder) Message {
	u64(c, &m.Epoch)
	u64(c, &m.Seq)
	for i := range list(c, &m.Inner, 6) {
		in := m.Inner[i].Message()
		c.inner(&in, true)
		if c.mode == reading {
			m.Inner[i] = EnvelopeOf(in)
		}
	}
	return done(c, &m)
}

func (m WtpAck) code(c *coder) Message {
	u64(c, &m.Epoch)
	u64(c, &m.Cum)
	for i := range list(c, &m.Sacks, 8) {
		u64(c, &m.Sacks[i])
	}
	return done(c, &m)
}

func (m GroupUpdateLoc) code(c *coder) Message {
	c.proxy(&m.Proxy)
	u32(c, &m.NewLoc)
	c.bytes(&m.Members)
	return done(c, &m)
}

func (m GroupAckForward) code(c *coder) Message {
	c.proxy(&m.Proxy)
	c.bytes(&m.Members)
	for i := range list(c, &m.Seqs, 4) {
		u32(c, &m.Seqs[i])
	}
	return done(c, &m)
}

// Field primitives.

func u8[T ~uint8](c *coder, p *T) {
	switch {
	case c.mode == appending:
		c.buf = append(c.buf, uint8(*p))
	case c.mode == sizing:
		c.off++
	case c.err == nil && len(c.buf)-c.off >= 1:
		*p = T(c.buf[c.off])
		c.off++
	default:
		c.fail(ErrTruncated)
	}
}

func u32[T ~uint32 | ~int32](c *coder, p *T) {
	switch {
	case c.mode == appending:
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(*p))
	case c.mode == sizing:
		c.off += 4
	case c.err == nil && len(c.buf)-c.off >= 4:
		*p = T(binary.BigEndian.Uint32(c.buf[c.off:]))
		c.off += 4
	default:
		c.fail(ErrTruncated)
	}
}

func u64[T ~uint64 | ~int64](c *coder, p *T) {
	switch {
	case c.mode == appending:
		c.buf = binary.BigEndian.AppendUint64(c.buf, uint64(*p))
	case c.mode == sizing:
		c.off += 8
	case c.err == nil && len(c.buf)-c.off >= 8:
		*p = T(binary.BigEndian.Uint64(c.buf[c.off:]))
		c.off += 8
	default:
		c.fail(ErrTruncated)
	}
}

// bool is one byte: 1 for true, 0 for false; reading, any nonzero byte
// is true.
func (c *coder) bool(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	u8(c, &b)
	*p = b != 0
}

// count codes a list's length n. Reading, it returns the decoded count,
// bounded by maxSliceLen and by the elements the bytes left can hold at
// min bytes each, so a corrupt prefix fails before anything is
// allocated for it.
func (c *coder) count(n, min int) int {
	v := uint32(n)
	u32(c, &v)
	if c.mode == reading && (c.err != nil || v > maxSliceLen || int(v) > (len(c.buf)-c.off)/min) {
		c.fail(ErrTruncated)
		return 0
	}
	return int(v)
}

// list codes the count of the list at p and returns the list, whose
// elements the caller then codes. Reading, it first replaces *p with
// that many zero elements (nil for none). min is the fewest bytes one
// element encodes to.
func list[T any](c *coder, p *[]T, min int) []T {
	n := c.count(len(*p), min)
	if c.mode == reading {
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	}
	return *p
}

// bytes is a length-prefixed byte string; reading copies it out of the
// input, and an empty one reads as nil.
func (c *coder) bytes(p *[]byte) {
	n := c.count(len(*p), 1)
	switch {
	case c.mode == sizing:
		c.off += n
	case c.mode == appending:
		c.buf = append(c.buf, *p...)
	case c.err != nil || n == 0:
		*p = nil
	default:
		*p = make([]byte, n)
		c.off += copy(*p, c.buf[c.off:])
	}
}

func (c *coder) req(r *ids.RequestID) {
	u32(c, &r.Origin)
	u32(c, &r.Seq)
}

// reqs is a request list; an empty one reads as nil.
func (c *coder) reqs(p *[]ids.RequestID) {
	for i := range list(c, p, 8) {
		c.req(&(*p)[i])
	}
}

func (c *coder) proxy(p *ids.ProxyID) {
	u32(c, &p.Host)
	u32(c, &p.Seq)
}

func (c *coder) batch(b *ids.BatchID) {
	u32(c, &b.Origin)
	u32(c, &b.Seq)
}

// inner codes a nested message behind a uint32 length prefix, the
// framing LinkFrame and WtpData share. Writing, the message goes in place
// and its length is patched in after, so a frame costs no intermediate
// buffer; reading, it must fill exactly the length.
func (c *coder) inner(p *Message, windowed bool) {
	switch c.mode {
	case sizing:
		c.off += 4
	case appending:
		c.buf = append(c.buf, 0, 0, 0, 0)
	default:
		n := c.count(0, 1)
		if c.err != nil {
			return
		}
		end, all := c.off+n, c.buf
		c.buf = c.buf[:end]
		*p = c.message(nil)
		if c.err == nil && c.off != end {
			c.err = ErrTrailing
		}
		c.buf = all
		switch {
		case c.err != nil:
			c.err = fmt.Errorf("msg: nested message: %w", c.err)
		case framing((*p).Kind(), windowed):
			c.err = ErrBadNesting
		}
		return
	}
	switch {
	case *p == nil:
		c.fail(fmt.Errorf("%w: nil inner message", ErrBadKind))
	case framing((*p).Kind(), windowed):
		c.fail(ErrBadNesting)
	default:
		at := len(c.buf)
		c.message(*p)
		if c.mode == appending {
			binary.BigEndian.PutUint32(c.buf[at-4:], uint32(len(c.buf)-at))
		}
	}
}

// framing reports whether kind k is framing that may not be nested: a
// link-layer kind anywhere, and a windowed kind inside a windowed frame.
func framing(k Kind, windowed bool) bool {
	return k == KindLinkFrame || k == KindLinkAck || windowed && (k == KindWtpData || k == KindWtpAck)
}

// encBufPool recycles scratch encode buffers across goroutines for the
// transports' encode-and-write path.
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
