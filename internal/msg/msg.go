// Package msg defines every message exchanged by the Result Delivery
// Protocol (RDP), by its substrates, and by the comparison baselines
// (Mobile IP-style tunneling and I-TCP-style image hand-off), together
// with a compact, versioned binary codec.
//
// Message taxonomy (paper section in parentheses):
//
//	Wireless, MH <-> respMss:
//	    Join, Leave (§2), Greet (§2, §3.2), Request (§3.1),
//	    ResultDeliver (§3.1, carries del-pref §3.3), AckMH (§3.1)
//	Wired, MSS <-> MSS (Hand-off, §3.2):
//	    Dereg, DeregAck (carries the pref)
//	Wired, MSS <-> proxy-hosting MSS (§3.1, §3.3):
//	    RequestForward, UpdateCurrentLoc, ResultForward (del-pref),
//	    AckForward (del-proxy), DelPrefOnly (Fig. 4 special message)
//	Wired, proxy <-> application server (§3.1):
//	    ServerRequest, ServerResult, ServerAck
//	Baselines (§4 comparison):
//	    MIPRegister, MIPData, MIPTunnel (Mobile IP);
//	    ImageTransfer (I-TCP-style indirect image hand-off)
//
// The eight messages of the request path — Request, RequestForward,
// ServerRequest, ServerResult, ResultForward, ResultDeliver, AckMH,
// AckForward — and the hand-off's four — Greet, Dereg, DeregAck, UpdateCurrentLoc — also
// travel unboxed as a Leg (leg.go), which crosses every door as a
// borrowed View and is kept in an Envelope (view.go).
//
// The codec (codec.go) names each kind's wire fields once, in the kind's
// code method, and walks that one list to size (WireSize), encode
// (Encode, AppendEncode) or decode (Decode) a message;
// testdata/wire.golden pins the format byte for byte.
package msg

import (
	"fmt"

	"repro/internal/ids"
)

// Kind discriminates message types on the wire and in traces.
type Kind uint8

// Message kinds. Values are part of the wire format; append only.
const (
	KindInvalid Kind = iota

	// Wireless MH <-> MSS.
	KindJoin
	KindLeave
	KindGreet
	KindRequest
	KindResultDeliver
	KindAckMH

	// Wired MSS <-> MSS hand-off.
	KindDereg
	KindDeregAck

	// Wired MSS <-> proxy host.
	KindRequestForward
	KindUpdateCurrentLoc
	KindResultForward
	KindAckForward
	KindDelPrefOnly

	// Wired proxy <-> server.
	KindServerRequest
	KindServerResult
	KindServerAck

	// Mobile IP baseline.
	KindMIPRegister
	KindMIPData
	KindMIPTunnel

	// I-TCP-style baseline.
	KindImageTransfer

	// SIDAM inter-TIS protocol (paper §1: "queries may eventually
	// require time-consuming data location and retrieval protocols
	// among the servers").
	KindTISQuery
	KindTISReply
	KindTISDeliver

	// Wired link layer (ARQ): per-link framing and positive acks that
	// restore assumption 1 (reliable causal MSS communication) over a
	// lossy backbone.
	KindLinkFrame
	KindLinkAck

	// Wireless MSS -> MH registration confirmation (crash recovery).
	KindRegConfirm

	// Wireless MSS -> MH admission control (overload protection): a
	// busy-NACK refusing a request, and the positive admission ack.
	KindBusy
	KindAdmit

	// Wired proxy migration (internal/proxymig): the offer/commit
	// handshake, the state transfer, the pref-redirect announcements to
	// servers and stale stations, and the tombstone garbage collection.
	KindMigOffer
	KindMigCommit
	KindMigState
	KindPrefRedirect
	KindMigGC

	// Atomic request batches (disconnected operation, E17): open a
	// batch, add member requests, seal it, and the proxy-side abort.
	KindBatchOpen
	KindBatchItem
	KindBatchCommit
	KindBatchAbort

	// Mobile-host crash/amnesia recovery (E18): incarnation-bearing
	// re-registration after a reboot, the proxy-lease heartbeat, and
	// the durable reclaim memo recording a lease-GC'd proxy.
	KindRegister
	KindLeaseHeartbeat
	KindReclaimMemo

	// Windowed wireless transport (E15, internal/wtp): a coalesced
	// sliding-window data frame carrying several inner messages, and
	// its cumulative + selective acknowledgment.
	KindWtpData
	KindWtpAck

	// Aggregated location state (E16): batched membership updates for
	// shared group proxies — a coalesced hand-off location update and a
	// coalesced forwarded-result acknowledgment, each carrying a
	// delta-encoded member set instead of one message per mobile host.
	KindGroupUpdateLoc
	KindGroupAckForward

	kindSentinel // one past the last valid kind
)

// kinds is the kind table: each kind's trace tag, and the zero value
// Decode reads the kind's fields into.
var kinds = [...]struct {
	name string
	zero Message
}{
	KindInvalid:          {"invalid", nil},
	KindJoin:             {"join", Join{}},
	KindLeave:            {"leave", Leave{}},
	KindGreet:            {"greet", Greet{}},
	KindRequest:          {"request", Request{}},
	KindResultDeliver:    {"result", ResultDeliver{}},
	KindAckMH:            {"ack", AckMH{}},
	KindDereg:            {"dereg", Dereg{}},
	KindDeregAck:         {"deregack", DeregAck{}},
	KindRequestForward:   {"request-fwd", RequestForward{}},
	KindUpdateCurrentLoc: {"update-currl", UpdateCurrentLoc{}},
	KindResultForward:    {"result-fwd", ResultForward{}},
	KindAckForward:       {"ack-fwd", AckForward{}},
	KindDelPrefOnly:      {"del-pref", DelPrefOnly{}},
	KindServerRequest:    {"srv-request", ServerRequest{}},
	KindServerResult:     {"srv-result", ServerResult{}},
	KindServerAck:        {"srv-ack", ServerAck{}},
	KindMIPRegister:      {"mip-register", MIPRegister{}},
	KindMIPData:          {"mip-data", MIPData{}},
	KindMIPTunnel:        {"mip-tunnel", MIPTunnel{}},
	KindImageTransfer:    {"image-transfer", ImageTransfer{}},
	KindTISQuery:         {"tis-query", TISQuery{}},
	KindTISReply:         {"tis-reply", TISReply{}},
	KindTISDeliver:       {"tis-deliver", TISDeliver{}},
	KindLinkFrame:        {"link-frame", LinkFrame{}},
	KindLinkAck:          {"link-ack", LinkAck{}},
	KindRegConfirm:       {"reg-confirm", RegConfirm{}},
	KindBusy:             {"busy", Busy{}},
	KindAdmit:            {"admit", Admit{}},
	KindMigOffer:         {"mig-offer", MigOffer{}},
	KindMigCommit:        {"mig-commit", MigCommit{}},
	KindMigState:         {"mig-state", MigState{}},
	KindPrefRedirect:     {"pref-redirect", PrefRedirect{}},
	KindMigGC:            {"mig-gc", MigGC{}},
	KindBatchOpen:        {"batch-open", BatchOpen{}},
	KindBatchItem:        {"batch-item", BatchItem{}},
	KindBatchCommit:      {"batch-commit", BatchCommit{}},
	KindBatchAbort:       {"batch-abort", BatchAbort{}},
	KindRegister:         {"register", Register{}},
	KindLeaseHeartbeat:   {"lease-hb", LeaseHeartbeat{}},
	KindReclaimMemo:      {"reclaim-memo", ReclaimMemo{}},
	KindWtpData:          {"wtp-data", WtpData{}},
	KindWtpAck:           {"wtp-ack", WtpAck{}},
	KindGroupUpdateLoc:   {"group-update-loc", GroupUpdateLoc{}},
	KindGroupAckForward:  {"group-ack-fwd", GroupAckForward{}},
}

// String returns the trace tag of the kind, e.g. "update-currl".
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k names a defined message kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindSentinel }

// Message is implemented by every protocol message.
type Message interface {
	// Kind returns the wire discriminator of the message.
	Kind() Kind
	// String renders the message for traces and test failures.
	String() string
}

// Pref is the proxy reference held by an MH's respMss and handed over on
// every migration (paper §3.1). A zero Proxy means the MH currently has
// no proxy (the paper's "null address"). RKpR is the "Ready to Kill pref"
// flag (§3.3), held as the sequence of the request whose Ack may confirm
// the proxy's removal: the one whose del-pref armed it. Zero is disarmed.
type Pref struct {
	Proxy ids.ProxyID
	RKpR  uint32
}

// HasProxy reports whether the reference points at a live proxy.
func (p Pref) HasProxy() bool { return p.Proxy.Valid() }

// String renders the pref for traces.
func (p Pref) String() string {
	if !p.HasProxy() {
		return "pref(nil)"
	}
	return fmt.Sprintf("pref(%v,RKpR=%t)", p.Proxy, p.RKpR != 0)
}

// ---------------------------------------------------------------------
// Wireless MH <-> MSS messages.

// Join announces a mobile host entering the system in the receiving
// station's cell (paper §2).
type Join struct {
	MH ids.MH
}

// Leave announces a mobile host leaving the system. Assumption 6: an MH
// only leaves after acknowledging every message from its respMss.
type Leave struct {
	MH ids.MH
}

// Greet is sent by an MH entering a new cell, or on reactivation in the
// same cell. OldMSS is the station responsible for the cell the MH is
// leaving; if OldMSS equals the receiving station no hand-off is started
// (paper §2, §3.2). Inc is the host's boot incarnation (E18); stations
// treat 0 as "first incarnation". Seq numbers the host's registrations
// within the incarnation: a greet that names a new cell takes the next
// one, a beacon or a reactivation in place repeats it, so (Inc, Seq)
// orders every hand-off race (DESIGN §5).
type Greet struct {
	MH     ids.MH
	OldMSS ids.MSS
	Inc    ids.Incarnation
	Seq    uint32
}

// Request is a service request from an MH to its respMss, to be routed
// to (or creating) the MH's proxy (paper §3.1). Inc stamps the issuing
// incarnation of the host (E18): a request from a dead incarnation must
// never produce a delivery to the rebooted host.
type Request struct {
	Req     ids.RequestID
	Server  ids.Server
	Payload []byte
	Inc     ids.Incarnation
}

// ResultDeliver carries a request result over the wireless link from the
// respMss to the MH. DelPref is the piggy-backed del-pref flag: true when
// the proxy has no other pending request (paper §3.3). Inc is the
// incarnation that issued the request; the MH refuses delivery when it
// does not match its current incarnation (post-amnesia duplicate guard).
type ResultDeliver struct {
	Req     ids.RequestID
	Payload []byte
	DelPref bool
	Inc     ids.Incarnation
}

// AckMH is the MH's acknowledgment for a delivered result (paper
// assumption 4). HaveOutstanding reports whether the MH still awaits
// results for other requests it has issued. §3.3 confirms proxy removal
// only on "an Ack from MH that is not preceded by any new request" —
// a property of the MH's own send stream. The respMss can observe it
// only for requests routed through itself; a request issued just before
// a migration travels via the previous station and would be invisible
// to the new one, so the MH states the property explicitly.
type AckMH struct {
	MH              ids.MH
	Req             ids.RequestID
	HaveOutstanding bool
}

// ---------------------------------------------------------------------
// Wired MSS <-> MSS hand-off messages (paper §3.2).

// Dereg asks the old respMss to de-register an MH and return its pref.
// Inc and Seq are those of the greet that started the hand-off: the
// station holding the pref hands it over only to a newer registration.
type Dereg struct {
	MH     ids.MH
	NewMSS ids.MSS
	Inc    ids.Incarnation
	Seq    uint32
}

// DeregAck transfers responsibility for the MH (with its pref) to the
// new respMss. Routed is the highest request sequence the old station
// routed to the pref's proxy, so the new one can tell whether a del-pref
// covers it (§3.3). Inc carries the old station's record of the host's
// registered incarnation, so incarnation knowledge survives hand-offs
// the same way the pref does (E18). A Stale deregack hands nothing over:
// it refuses the dereg for registration Seq, which is no newer than the
// one Holder holds or is about to.
type DeregAck struct {
	MH     ids.MH
	Pref   Pref
	Routed uint32
	Inc    ids.Incarnation
	Stale  bool
	Holder ids.MSS
	Seq    uint32
}

// ---------------------------------------------------------------------
// Wired MSS <-> proxy-hosting MSS messages.

// RequestForward routes a new request from the MH's respMss to the MSS
// hosting the MH's proxy (paper §3.1, §3.3: "all new requests must be
// forwarded to the MSS hosting the proxy").
type RequestForward struct {
	Proxy   ids.ProxyID
	Req     ids.RequestID
	Server  ids.Server
	Payload []byte
	Inc     ids.Incarnation // issuing incarnation of the origin MH (E18)
}

// UpdateCurrentLoc updates the proxy's currentLoc variable after a
// completed hand-off or a reactivation (paper §3.1, §3.2). Its arrival
// triggers retransmission of every un-acked result.
type UpdateCurrentLoc struct {
	Proxy  ids.ProxyID
	MH     ids.MH
	NewLoc ids.MSS
}

// ResultForward carries a stored result from the proxy to the MH's
// current respMss. DelPref is piggy-backed when this is the result of the
// proxy's last pending request (paper §3.3), and Mark with it: the
// highest request sequence the proxy has received for the MH.
type ResultForward struct {
	Proxy   ids.ProxyID
	MH      ids.MH
	Req     ids.RequestID
	Payload []byte
	DelPref bool
	Mark    uint32
	Inc     ids.Incarnation // incarnation that issued Req; stale => never delivered (E18)
}

// AckForward relays an MH's Ack from its respMss to the proxy. DelProxy
// is piggy-backed when the respMss confirms proxy removal (RKpR held and
// no new request intervened; paper §3.3).
type AckForward struct {
	Proxy    ids.ProxyID
	MH       ids.MH
	Req      ids.RequestID
	DelProxy bool
}

// DelPrefOnly is the Fig. 4 special message: the proxy's last pending
// result has already been forwarded (and acked at the proxy later than
// forwarded), so the proxy sends the del-pref flag alone to the respMss
// — for that sole request Req, of incarnation Inc, with the proxy's Mark
// as on a ResultForward.
type DelPrefOnly struct {
	Proxy ids.ProxyID
	MH    ids.MH
	Req   ids.RequestID
	Mark  uint32
	Inc   ids.Incarnation
}

// ---------------------------------------------------------------------
// Wired proxy <-> server messages (paper §3.1: "from the server's point
// of view, the service is being requested from a fixed client").

// ServerRequest is issued by a proxy to an application server on behalf
// of an MH.
type ServerRequest struct {
	Proxy   ids.ProxyID
	Req     ids.RequestID
	Payload []byte
}

// ServerResult is the server's reply, addressed to the proxy that issued
// the request.
type ServerResult struct {
	Proxy   ids.ProxyID
	Req     ids.RequestID
	Payload []byte
}

// ServerAck is the optional application-level acknowledgment sent by the
// proxy to the server once the MH acknowledged the result (paper §3.1:
// "possibly sends an acknowledgment to the server, depending on the
// particular application-level protocol").
type ServerAck struct {
	Req ids.RequestID
}

// ---------------------------------------------------------------------
// Mobile IP baseline messages (paper §4 comparison).

// MIPRegister registers a new care-of address (the foreign agent's MSS)
// with the MH's home agent.
type MIPRegister struct {
	MH     ids.MH
	CareOf ids.MSS
}

// MIPData is a datagram addressed to a mobile node, sent by a
// correspondent (server) to the MH's home agent.
type MIPData struct {
	MH      ids.MH
	Req     ids.RequestID
	Payload []byte
}

// MIPTunnel is a datagram tunneled by the home agent to the registered
// care-of address for final wireless delivery.
type MIPTunnel struct {
	MH      ids.MH
	Req     ids.RequestID
	Payload []byte
}

// ---------------------------------------------------------------------
// I-TCP-style baseline message.

// ImageTransfer ships the full per-MH session image (pending requests
// and buffered results) between support stations during a hand-off, the
// way indirect-protocol systems such as I-TCP move the MH's image
// (paper §4). RDP's equivalent transfer is the single Pref in DeregAck.
type ImageTransfer struct {
	MH      ids.MH
	Pending []ids.RequestID
	Results [][]byte
}

// ---------------------------------------------------------------------
// SIDAM inter-TIS messages.

// TISOp discriminates inter-TIS operations.
type TISOp uint8

// Inter-TIS operations.
const (
	TISOpQuery TISOp = iota + 1
	TISOpUpdate
	TISOpSubscribe
	TISOpMailbox   // park a member's mailbox request at its mailbox TIS
	TISOpMulticast // submit a group message to the group's owning TIS
)

// String names the operation.
func (o TISOp) String() string {
	switch o {
	case TISOpQuery:
		return "query"
	case TISOpUpdate:
		return "update"
	case TISOpSubscribe:
		return "subscribe"
	case TISOpMailbox:
		return "mailbox"
	case TISOpMulticast:
		return "multicast"
	default:
		return fmt.Sprintf("tisop(%d)", uint8(o))
	}
}

// TISQuery routes an operation hop-by-hop through the Traffic
// Information Server network toward the owner of a region (or of a
// group / member mailbox for the multicast operations). Proxy and Req
// identify the RDP proxy awaiting the outcome, so the owner can answer
// (or notify) the client's proxy directly. Data carries the message
// body of a multicast submission.
type TISQuery struct {
	QID    uint64
	Origin ids.Server
	Op     TISOp
	Region uint32 // region id, or group id for multicast ops
	Value  int32  // update payload / subscription threshold
	Hops   uint8
	Proxy  ids.ProxyID
	Req    ids.RequestID
	Data   []byte
}

// TISDeliver carries one group message from the group's owning TIS to a
// member's mailbox TIS. Seq is the owner's per-group serialization
// number: every member observes group messages in Seq order, giving the
// multicast operation its total order.
type TISDeliver struct {
	Member ids.MH
	Group  uint32
	Seq    uint64
	Data   []byte
}

// TISReply answers a routed TISQuery back to its origin TIS.
type TISReply struct {
	QID    uint64
	Region uint32
	Value  int32
	Stamp  int64 // virtual-time nanoseconds of the reading
	Hops   uint8
}

// ---------------------------------------------------------------------
// Wired link-layer (ARQ) messages.

// LinkFrame wraps one wired protocol message with a per-directed-link
// sequence number. The sender retransmits the frame until it receives a
// matching LinkAck; the receiver acks every copy and delivers the inner
// message at most once. Inner must not itself be a link-layer message.
type LinkFrame struct {
	Seq   uint64
	Inner Message
}

// LinkAck positively acknowledges the LinkFrame with the same Seq on the
// reverse direction of the link.
type LinkAck struct {
	Seq uint64
}

// ---------------------------------------------------------------------
// Registration confirmation (crash recovery).

// RegConfirm is sent downlink by a station once it has durably recorded
// responsibility for the MH. Until the MH sees it, the MH keeps naming
// its last *confirmed* station as OldMSS in greets, so a station that
// crashed before persisting the registration is simply bypassed.
type RegConfirm struct {
	MH ids.MH
}

// ---------------------------------------------------------------------
// Admission control (overload protection).

// Busy is the station's NACK for a request it refuses to admit — its
// inbox is past the high-watermark.
// The request was not enqueued and no proxy exists for it; the MH backs
// off and re-issues. Refusal is explicit so overload never silently
// breaks the delivery guarantee: a request is either admitted (and then
// delivered at least once) or visibly refused.
type Busy struct {
	Req ids.RequestID
}

// Admit is the station's positive admission acknowledgement: the
// request is past admission control and a proxy is (or already was)
// responsible for it. From this point the delivery guarantee covers the
// request, and the MH stops its busy-retry/deadline machinery.
type Admit struct {
	Req ids.RequestID
}

// ---------------------------------------------------------------------
// Proxy migration (internal/proxymig).

// MigOffer asks the MH's current respMss to adopt the proxy. Pending and
// HostLoad describe the proxy and its host so the target can decide
// admission; LoadCheck marks a load-driven migration, which the target
// only accepts when taking the proxy actually improves the balance.
type MigOffer struct {
	Proxy     ids.ProxyID
	MH        ids.MH
	Pending   uint32 // pending requests held by the proxy
	HostLoad  uint32 // proxies hosted at the offering station
	LoadCheck bool   // load-driven policy: accept only if balance improves
}

// MigCommit answers a MigOffer. On acceptance NewProxy names the
// identity the target allocated (and durably reserved) for the adopted
// proxy; the old host then ships MigState and tombstones the old id. On
// refusal the old host simply keeps the proxy and backs off.
type MigCommit struct {
	Proxy    ids.ProxyID // the offered (old) proxy
	NewProxy ids.ProxyID // allocated at the target; zero on refusal
	MH       ids.MH
	Accept   bool
}

// ProxyReq is one entry of a proxy's requestList (§3.1): the request, its
// target server, the original payload (for crash-recovery re-issue), the
// stored result if the server already answered, and whether that result
// has been forwarded toward the MH at least once. A request is pending
// from insertion until its Ack arrives; the stored result survives until
// then so it can be re-sent on every location update.
type ProxyReq struct {
	Req       ids.RequestID
	Server    ids.Server
	Payload   []byte
	Result    []byte
	HasResult bool
	Forwarded bool
	Batch     ids.BatchID // batch membership (E17); zero for ordinary requests
	// Inc is the MH incarnation that issued the request (E18): a rebooted
	// host restarts its sequence counter, so the same RequestID can name
	// two different requests across a crash.
	Inc ids.Incarnation
}

// ProxyBatch is one atomic batch (E17) at its proxy: the commit's member
// count (zero until the commit arrives), whether the batch has been
// committed, released or aborted, and its opening incarnation. Its members
// are the requestList entries tagged with it (ProxyReq.Batch). A released
// batch stays until its host's floor passes it, so a late duplicate item
// cannot re-execute a completed computation; an aborted one is the abort
// memo, which answers a retry with the same abort and must survive
// migration and crashes until the floor passes it too. The deadline is not
// part of it: whoever revives the batch arms a fresh, full one.
type ProxyBatch struct {
	Batch     ids.BatchID
	Expected  uint32
	Committed bool
	Released  bool
	Aborted   bool
	Inc       ids.Incarnation // opening incarnation of the batch (E18)
}

// BatchFloor is what a proxy knows of one origin host's batches (E17):
// Inc is the newest incarnation it has heard from the host, and every
// batch of Inc below Seq is resolved at the host — delivered or aborted —
// so the proxy keeps no record of it and refuses its traffic as a replay.
type BatchFloor struct {
	MH  ids.MH
	Seq uint32
	Inc ids.Incarnation
}

// MigState is a proxy's durable image: what a station journals for it,
// and what the old host ships to the target that accepted a migration
// offer. CurrentLoc is the proxy's view of the MH's station; Reqs is the
// requestList in issue order; Batches holds the batch records and abort
// memos above their hosts' floors in opening order, and Floors one floor
// per origin host that ever sent batch traffic; Mark and MarkInc are the
// proxy's high-water mark and the incarnation it counts for. NewProxy is
// the identity at the target (zero in a journal image).
type MigState struct {
	Proxy      ids.ProxyID // the identity the image was taken under
	NewProxy   ids.ProxyID
	MH         ids.MH
	CurrentLoc ids.MSS
	Reqs       []ProxyReq
	Batches    []ProxyBatch
	Floors     []BatchFloor
	Mark       uint32
	MarkInc    ids.Incarnation
	// LeaseInc is the newest incarnation the proxy's lease has heard for
	// its MH; whoever revives the image re-arms the lease-expiry timer
	// from scratch (E18).
	LeaseInc ids.Incarnation
}

// PrefRedirect announces that OldProxy has migrated to NewProxy. Three
// roles share the message: the new host announces the move to every
// server with a result-less pending request (Confirm=false, Req set to
// the pending request); the server echoes it with Confirm=true to the
// old host, feeding the tombstone's confirmation set; and the tombstone
// sends it (Confirm=false) to any station that still addresses the old
// proxy, lazily rebinding stale prefs.
type PrefRedirect struct {
	MH       ids.MH
	OldProxy ids.ProxyID
	NewProxy ids.ProxyID
	Req      ids.RequestID // pending request being redirected; zero for pref rebinds
	Confirm  bool
}

// MigGC closes a migration episode: the old host garbage-collected the
// tombstone (every server confirmed and the linger window passed), so
// the new host drops its inbound reservation bookkeeping.
type MigGC struct {
	OldProxy ids.ProxyID
	NewProxy ids.ProxyID
	MH       ids.MH
}

// ---------------------------------------------------------------------
// Atomic request batches (disconnected operation, E17). Like the
// Request/RequestForward pair, each batch message serves both legs of
// its journey: Proxy is zero on the wireless uplink from the MH and is
// filled in when the respMss forwards the message to the proxy host, so
// tombstones can rebind it after a migration.

// BatchOpen opens an atomic request batch at the MH's proxy. Member
// results are withheld until every member's result is present and the
// batch is committed — delivery is all-or-nothing. Floor is the host's
// lowest unresolved batch when the open was sent: the proxy forgets every
// batch of the host below it.
type BatchOpen struct {
	Proxy ids.ProxyID // zero uplink; proxy identity on the wired forward
	MH    ids.MH
	Batch ids.BatchID
	Inc   ids.Incarnation // opening incarnation of the MH (E18)
	Floor uint32
}

// BatchItem adds one member request to an open batch. It carries the
// same routing payload as Request; the proxy tags the request with the
// batch so its result is withheld until the batch releases.
type BatchItem struct {
	Proxy   ids.ProxyID
	MH      ids.MH
	Batch   ids.BatchID
	Req     ids.RequestID
	Server  ids.Server
	Payload []byte
	Inc     ids.Incarnation // issuing incarnation of the MH (E18)
}

// BatchCommit seals the batch. Count is the total number of members the
// MH placed in the batch; the proxy releases delivery once it holds
// results for all Count members (commit may overtake late items only in
// count, never in causal order on a single path — Count makes release
// correct across replay and migration too).
type BatchCommit struct {
	Proxy ids.ProxyID
	MH    ids.MH
	Batch ids.BatchID
	Count uint32
	Inc   ids.Incarnation // committing incarnation of the MH (E18)
}

// BatchAbort tears a batch down without delivering any member result:
// the proxy's batch deadline expired before commit-plus-results. It is
// sent to the MH's current station and relayed downlink; it names the
// batch and the incarnation that opened it, and the MH abandons the
// members it issued in that batch — only if it is still that
// incarnation.
type BatchAbort struct {
	Proxy ids.ProxyID
	MH    ids.MH
	Batch ids.BatchID
	Inc   ids.Incarnation
}

// ---------------------------------------------------------------------
// Mobile-host crash/amnesia recovery (E18).

// Register is the incarnation-bearing registration a rebooted mobile
// host sends to the station responsible for its cell: "I am MH m, now
// in incarnation i". Unlike Join (a first boot, implicitly incarnation
// 1) and Greet (a cell change), Register re-asserts an existing
// registration in place under a fresh incarnation. The station records
// the incarnation durably, scrubs per-MH state belonging to older
// incarnations (held results; its routed watermark restarts) and
// confirms with RegConfirm.
type Register struct {
	MH  ids.MH
	Inc ids.Incarnation
}

// LeaseHeartbeat renews the lease on a mobile host's proxy. The host's
// respMss sends it to the proxy's host while the registration is alive;
// it names the newest incarnation the station has registered. A
// heartbeat carrying a newer incarnation than the proxy's lease tells
// the proxy host the older incarnation is dead: requests (and batches)
// it left behind are scrubbed. A proxy whose lease sees no heartbeat
// for Config.LeaseTTL is reclaimed entirely (E18 orphan GC).
type LeaseHeartbeat struct {
	Proxy ids.ProxyID
	MH    ids.MH
	Inc   ids.Incarnation
}

// ReclaimMemo records (and announces) the lease-GC reclamation of an
// orphaned proxy. The proxy host journals the memo durably before
// dropping the proxy — the decision must survive its own crash — and
// sends it to the MH's last known respMss so the stale pref is emptied
// there too: a pref naming Proxy, which no later proxy is named after.
type ReclaimMemo struct {
	Proxy ids.ProxyID
	MH    ids.MH
}

// WtpData is one windowed-wireless-transport data frame (E15,
// internal/wtp): a link-layer envelope like LinkFrame, but carrying a
// whole coalesced batch of downlink messages under one sequence number.
// Epoch scopes the sequence space — a sender that gives up on an
// unreachable host resets its link and bumps the epoch, so frames and
// acks of the abandoned generation are ignored by both ends. Inner
// messages must themselves be application messages: link-layer kinds
// (LinkFrame, LinkAck, WtpData, WtpAck) do not nest. They are kept as
// envelopes, so a leg rides a frame by value; the codec reads and writes
// them as the messages they hold.
type WtpData struct {
	Epoch uint64
	Seq   uint64
	Inner []Envelope
}

// WtpAck acknowledges WtpData frames: Cum is the cumulative in-order
// watermark (every sequence number at or below it is delivered) and
// Sacks lists out-of-order frames held by the receiver for reordering
// (selective acknowledgment, ascending).
type WtpAck struct {
	Epoch uint64
	Cum   uint64
	Sacks []uint64
}

// GroupUpdateLoc batches hand-off location updates for a shared group
// proxy (E16 aggregated state): every mobile host in Members now
// resides at NewLoc. Members is an aggstate delta-encoded set of MH
// identifiers — opaque bytes at this layer, so the codec stays
// independent of the membership structure. One frame replaces a
// per-host UpdateCurrentLoc storm after a cell hand-off wave.
type GroupUpdateLoc struct {
	Proxy   ids.ProxyID
	NewLoc  ids.MSS
	Members []byte
}

// GroupAckForward batches forwarded-result acknowledgments for a
// shared group proxy: member i of the delta-encoded Members set (in
// its ascending iteration order) acknowledges its own request with
// sequence number Seqs[i]. len(Seqs) must equal the decoded member
// count; the proxy validates the pairing on receipt.
type GroupAckForward struct {
	Proxy   ids.ProxyID
	Members []byte
	Seqs    []uint32
}

// ---------------------------------------------------------------------
// Kind methods.

func (Join) Kind() Kind             { return KindJoin }
func (Leave) Kind() Kind            { return KindLeave }
func (Greet) Kind() Kind            { return KindGreet }
func (Request) Kind() Kind          { return KindRequest }
func (ResultDeliver) Kind() Kind    { return KindResultDeliver }
func (AckMH) Kind() Kind            { return KindAckMH }
func (Dereg) Kind() Kind            { return KindDereg }
func (DeregAck) Kind() Kind         { return KindDeregAck }
func (RequestForward) Kind() Kind   { return KindRequestForward }
func (UpdateCurrentLoc) Kind() Kind { return KindUpdateCurrentLoc }
func (ResultForward) Kind() Kind    { return KindResultForward }
func (AckForward) Kind() Kind       { return KindAckForward }
func (DelPrefOnly) Kind() Kind      { return KindDelPrefOnly }
func (ServerRequest) Kind() Kind    { return KindServerRequest }
func (ServerResult) Kind() Kind     { return KindServerResult }
func (ServerAck) Kind() Kind        { return KindServerAck }
func (MIPRegister) Kind() Kind      { return KindMIPRegister }
func (MIPData) Kind() Kind          { return KindMIPData }
func (MIPTunnel) Kind() Kind        { return KindMIPTunnel }
func (ImageTransfer) Kind() Kind    { return KindImageTransfer }
func (TISQuery) Kind() Kind         { return KindTISQuery }
func (TISReply) Kind() Kind         { return KindTISReply }
func (TISDeliver) Kind() Kind       { return KindTISDeliver }
func (LinkFrame) Kind() Kind        { return KindLinkFrame }
func (LinkAck) Kind() Kind          { return KindLinkAck }
func (RegConfirm) Kind() Kind       { return KindRegConfirm }
func (Busy) Kind() Kind             { return KindBusy }
func (Admit) Kind() Kind            { return KindAdmit }
func (MigOffer) Kind() Kind         { return KindMigOffer }
func (MigCommit) Kind() Kind        { return KindMigCommit }
func (MigState) Kind() Kind         { return KindMigState }
func (PrefRedirect) Kind() Kind     { return KindPrefRedirect }
func (MigGC) Kind() Kind            { return KindMigGC }
func (BatchOpen) Kind() Kind        { return KindBatchOpen }
func (BatchItem) Kind() Kind        { return KindBatchItem }
func (BatchCommit) Kind() Kind      { return KindBatchCommit }
func (BatchAbort) Kind() Kind       { return KindBatchAbort }
func (Register) Kind() Kind         { return KindRegister }
func (LeaseHeartbeat) Kind() Kind   { return KindLeaseHeartbeat }
func (ReclaimMemo) Kind() Kind      { return KindReclaimMemo }
func (WtpData) Kind() Kind          { return KindWtpData }
func (WtpAck) Kind() Kind           { return KindWtpAck }
func (GroupUpdateLoc) Kind() Kind   { return KindGroupUpdateLoc }
func (GroupAckForward) Kind() Kind  { return KindGroupAckForward }

// ---------------------------------------------------------------------
// Proxy-addressed kinds.

// ProxyAddressed is implemented by the kinds whose Proxy field names
// the proxy they are for (not, as on ResultForward or ServerRequest, the
// proxy they come from): the station hosting that identity delivers them
// by it alone, and a migrated proxy's forwarding stub re-addresses them
// without knowing the kind. The batch kinds answer NoProxy on their
// wireless leg.
type ProxyAddressed interface {
	Message
	ProxyID() ids.ProxyID
	WithProxy(ids.ProxyID) Message
}

func (m RequestForward) ProxyID() ids.ProxyID   { return m.Proxy }
func (m UpdateCurrentLoc) ProxyID() ids.ProxyID { return m.Proxy }
func (m AckForward) ProxyID() ids.ProxyID       { return m.Proxy }
func (m ServerResult) ProxyID() ids.ProxyID     { return m.Proxy }
func (m LeaseHeartbeat) ProxyID() ids.ProxyID   { return m.Proxy }
func (m BatchOpen) ProxyID() ids.ProxyID        { return m.Proxy }
func (m BatchItem) ProxyID() ids.ProxyID        { return m.Proxy }
func (m BatchCommit) ProxyID() ids.ProxyID      { return m.Proxy }
func (m GroupUpdateLoc) ProxyID() ids.ProxyID   { return m.Proxy }
func (m GroupAckForward) ProxyID() ids.ProxyID  { return m.Proxy }

func (m RequestForward) WithProxy(id ids.ProxyID) Message   { m.Proxy = id; return m }
func (m UpdateCurrentLoc) WithProxy(id ids.ProxyID) Message { m.Proxy = id; return m }
func (m AckForward) WithProxy(id ids.ProxyID) Message       { m.Proxy = id; return m }
func (m ServerResult) WithProxy(id ids.ProxyID) Message     { m.Proxy = id; return m }
func (m LeaseHeartbeat) WithProxy(id ids.ProxyID) Message   { m.Proxy = id; return m }
func (m BatchOpen) WithProxy(id ids.ProxyID) Message        { m.Proxy = id; return m }
func (m BatchItem) WithProxy(id ids.ProxyID) Message        { m.Proxy = id; return m }
func (m BatchCommit) WithProxy(id ids.ProxyID) Message      { m.Proxy = id; return m }
func (m GroupUpdateLoc) WithProxy(id ids.ProxyID) Message   { m.Proxy = id; return m }
func (m GroupAckForward) WithProxy(id ids.ProxyID) Message  { m.Proxy = id; return m }

// ---------------------------------------------------------------------
// String methods (trace rendering).

func (m Join) String() string  { return fmt.Sprintf("join(%v)", m.MH) }
func (m Leave) String() string { return fmt.Sprintf("leave(%v)", m.MH) }
func (m Greet) String() string { return fmt.Sprintf("greet(%v,old=%v)", m.MH, m.OldMSS) }
func (m Request) String() string {
	return fmt.Sprintf("request(%v->%v,%dB)", m.Req, m.Server, len(m.Payload))
}
func (m ResultDeliver) String() string {
	return fmt.Sprintf("result(%v,%dB,del-pref=%t)", m.Req, len(m.Payload), m.DelPref)
}
func (m AckMH) String() string {
	return fmt.Sprintf("ack(%v,%v,outst=%t)", m.MH, m.Req, m.HaveOutstanding)
}
func (m Dereg) String() string { return fmt.Sprintf("dereg(%v,new=%v)", m.MH, m.NewMSS) }
func (m DeregAck) String() string {
	if m.Stale {
		return fmt.Sprintf("deregack(%v,stale#%d,holder=%v)", m.MH, m.Seq, m.Holder)
	}
	return fmt.Sprintf("deregack(%v,%v)", m.MH, m.Pref)
}
func (m RequestForward) String() string {
	return fmt.Sprintf("request-fwd(%v,%v->%v)", m.Proxy, m.Req, m.Server)
}
func (m UpdateCurrentLoc) String() string {
	return fmt.Sprintf("update-currl(%v,%v@%v)", m.Proxy, m.MH, m.NewLoc)
}
func (m ResultForward) String() string {
	return fmt.Sprintf("result-fwd(%v,%v,del-pref=%t)", m.Proxy, m.Req, m.DelPref)
}
func (m AckForward) String() string {
	return fmt.Sprintf("ack-fwd(%v,%v,del-proxy=%t)", m.Proxy, m.Req, m.DelProxy)
}
func (m DelPrefOnly) String() string {
	return fmt.Sprintf("del-pref(%v,%v)", m.Proxy, m.MH)
}
func (m ServerRequest) String() string {
	return fmt.Sprintf("srv-request(%v,%v,%dB)", m.Proxy, m.Req, len(m.Payload))
}
func (m ServerResult) String() string {
	return fmt.Sprintf("srv-result(%v,%v,%dB)", m.Proxy, m.Req, len(m.Payload))
}
func (m ServerAck) String() string { return fmt.Sprintf("srv-ack(%v)", m.Req) }
func (m MIPRegister) String() string {
	return fmt.Sprintf("mip-register(%v@%v)", m.MH, m.CareOf)
}
func (m MIPData) String() string {
	return fmt.Sprintf("mip-data(%v,%v,%dB)", m.MH, m.Req, len(m.Payload))
}
func (m MIPTunnel) String() string {
	return fmt.Sprintf("mip-tunnel(%v,%v,%dB)", m.MH, m.Req, len(m.Payload))
}
func (m ImageTransfer) String() string {
	return fmt.Sprintf("image-transfer(%v,pending=%d,results=%d)", m.MH, len(m.Pending), len(m.Results))
}

func (m TISQuery) String() string {
	return fmt.Sprintf("tis-query(%d,%v,%v,region=%d,hops=%d)", m.QID, m.Op, m.Origin, m.Region, m.Hops)
}
func (m TISReply) String() string {
	return fmt.Sprintf("tis-reply(%d,region=%d,value=%d,hops=%d)", m.QID, m.Region, m.Value, m.Hops)
}
func (m TISDeliver) String() string {
	return fmt.Sprintf("tis-deliver(%v,group=%d,seq=%d,%dB)", m.Member, m.Group, m.Seq, len(m.Data))
}

func (m LinkFrame) String() string {
	return fmt.Sprintf("link-frame(seq=%d,%v)", m.Seq, m.Inner)
}
func (m LinkAck) String() string    { return fmt.Sprintf("link-ack(seq=%d)", m.Seq) }
func (m RegConfirm) String() string { return fmt.Sprintf("reg-confirm(%v)", m.MH) }
func (m Busy) String() string       { return fmt.Sprintf("busy(%v)", m.Req) }
func (m Admit) String() string      { return fmt.Sprintf("admit(%v)", m.Req) }
func (m MigOffer) String() string {
	return fmt.Sprintf("mig-offer(%v,%v,pending=%d,load=%d,loadchk=%t)",
		m.Proxy, m.MH, m.Pending, m.HostLoad, m.LoadCheck)
}
func (m MigCommit) String() string {
	return fmt.Sprintf("mig-commit(%v->%v,%v,accept=%t)", m.Proxy, m.NewProxy, m.MH, m.Accept)
}
func (m MigState) String() string {
	return fmt.Sprintf("mig-state(%v->%v,%v,currl=%v,reqs=%d)",
		m.Proxy, m.NewProxy, m.MH, m.CurrentLoc, len(m.Reqs))
}
func (m PrefRedirect) String() string {
	return fmt.Sprintf("pref-redirect(%v,%v->%v,%v,confirm=%t)",
		m.MH, m.OldProxy, m.NewProxy, m.Req, m.Confirm)
}
func (m MigGC) String() string {
	return fmt.Sprintf("mig-gc(%v->%v,%v)", m.OldProxy, m.NewProxy, m.MH)
}
func (m BatchOpen) String() string {
	return fmt.Sprintf("batch-open(%v,%v,%v,floor=%d)", m.Proxy, m.MH, m.Batch, m.Floor)
}
func (m BatchItem) String() string {
	return fmt.Sprintf("batch-item(%v,%v,%v->%v,%dB)", m.Proxy, m.Batch, m.Req, m.Server, len(m.Payload))
}
func (m BatchCommit) String() string {
	return fmt.Sprintf("batch-commit(%v,%v,count=%d)", m.Proxy, m.Batch, m.Count)
}
func (m BatchAbort) String() string {
	return fmt.Sprintf("batch-abort(%v,%v,inc=%d)", m.Proxy, m.Batch, m.Inc)
}
func (m Register) String() string {
	return fmt.Sprintf("register(%v,%v)", m.MH, m.Inc)
}
func (m LeaseHeartbeat) String() string {
	return fmt.Sprintf("lease-hb(%v,%v,%v)", m.Proxy, m.MH, m.Inc)
}
func (m ReclaimMemo) String() string {
	return fmt.Sprintf("reclaim-memo(%v,%v)", m.Proxy, m.MH)
}
func (m WtpData) String() string {
	return fmt.Sprintf("wtp-data(ep=%d,seq=%d,msgs=%d)", m.Epoch, m.Seq, len(m.Inner))
}
func (m WtpAck) String() string {
	return fmt.Sprintf("wtp-ack(ep=%d,cum=%d,sacks=%d)", m.Epoch, m.Cum, len(m.Sacks))
}
func (m GroupUpdateLoc) String() string {
	return fmt.Sprintf("group-update-loc(%v,new=%v,%dB)", m.Proxy, m.NewLoc, len(m.Members))
}
func (m GroupAckForward) String() string {
	return fmt.Sprintf("group-ack-fwd(%v,%dB,seqs=%d)", m.Proxy, len(m.Members), len(m.Seqs))
}

// Compile-time interface checks.
var (
	_ Message = Join{}
	_ Message = Leave{}
	_ Message = Greet{}
	_ Message = Request{}
	_ Message = ResultDeliver{}
	_ Message = AckMH{}
	_ Message = Dereg{}
	_ Message = DeregAck{}
	_ Message = RequestForward{}
	_ Message = UpdateCurrentLoc{}
	_ Message = ResultForward{}
	_ Message = AckForward{}
	_ Message = DelPrefOnly{}
	_ Message = ServerRequest{}
	_ Message = ServerResult{}
	_ Message = ServerAck{}
	_ Message = MIPRegister{}
	_ Message = MIPData{}
	_ Message = MIPTunnel{}
	_ Message = ImageTransfer{}
	_ Message = TISQuery{}
	_ Message = TISReply{}
	_ Message = TISDeliver{}
	_ Message = LinkFrame{}
	_ Message = LinkAck{}
	_ Message = RegConfirm{}
	_ Message = Busy{}
	_ Message = Admit{}
	_ Message = MigOffer{}
	_ Message = MigCommit{}
	_ Message = MigState{}
	_ Message = PrefRedirect{}
	_ Message = MigGC{}
	_ Message = BatchOpen{}
	_ Message = BatchItem{}
	_ Message = BatchCommit{}
	_ Message = BatchAbort{}
	_ Message = Register{}
	_ Message = LeaseHeartbeat{}
	_ Message = ReclaimMemo{}
	_ Message = WtpData{}
	_ Message = WtpAck{}
	_ Message = GroupUpdateLoc{}
	_ Message = GroupAckForward{}
)
