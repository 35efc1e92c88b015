// Package cap defines the FractOS capability model (§3.5 of the
// paper): global object references, rights, per-Process capability
// spaces, and owner-side revocation trees.
//
// A capability names a Memory or Request object that is registered
// with exactly one Controller (its owner). Internally a capability
// holds the owning Controller's address, the object ID, and the
// Controller's epoch (reboot counter); Processes only ever see opaque
// indices (cids) into their capability space, mirroring POSIX file
// descriptors.
//
// Delegation is untracked: it just installs another cap-space entry
// pointing at the same object. Revocation invalidates the object (and
// its revocation-tree descendants) at the owner, which is a single
// message; stale entries elsewhere are purged by an asynchronous
// cleanup broadcast and are also rejected on use because every use
// contacts the owner.
//
// Storage model: both the capability space and the revocation tree are
// paged slabs addressed by {index, generation} handles. The low bits
// of a cid (or ObjectID) select a slot, the high bits carry the slot's
// generation at mint time. A handle is valid only while the slot's
// current generation matches, so OS-initiated removals (revocation
// cleanup, stale-epoch purges) can bump the generation and recycle the
// slot: the old handle stays permanently invalid without the slot
// leaking. Slabs are paged (arrays behind pointers) so entry and node
// addresses are stable across growth — hot paths may hold pointers
// into the slab without copying.
package cap

import "fmt"

// ControllerID addresses a FractOS Controller. IDs are assigned by the
// deployment (the operator pre-deploys Controllers).
type ControllerID uint32

// ObjectID names an object within its owning Controller. It is a slab
// handle: the low 32 bits are a slot selector (index+1, so 0 stays the
// invalid ID), the high 32 bits are the slot generation at creation.
// Fresh slots mint generation-0 IDs, which coincide exactly with a
// sequential counter — so workloads that never remove objects see the
// same ObjectID values a naive counter would produce.
type ObjectID uint64

// Epoch is a Controller reboot counter. It increases monotonically on
// every Controller restart; capabilities minted under an older epoch
// are implicitly revoked (a simple form of Lamport timestamp, §3.6).
type Epoch uint32

// ProcID names a FractOS Process (application or device adaptor).
type ProcID uint64

// CapID is a Process-local capability index ("cid"). 0 is never a
// valid cid. Like ObjectID it is a slab handle: the low capIdxBits
// bits select a slot (index+1), the high capGenBits bits carry the
// slot generation. Generation-0 cids equal index+1, matching the
// sequential cids the Process observed before slots ever recycled.
//
//fractos:minted
type CapID uint32

// NilCap is the invalid capability index.
const NilCap CapID = 0

// cid handle layout: 24 index bits (16M live caps per space), 8
// generation bits. A slot whose generation saturates is retired
// rather than wrapped, so a purged cid can never alias a later entry.
const (
	capIdxBits = 24
	capIdxMask = 1<<capIdxBits - 1
	capMaxGen  = 1<<(32-capIdxBits) - 1
)

// objGenShift splits an ObjectID into {generation, index+1}.
const objGenShift = 32

// Kind discriminates the two FractOS object types.
type Kind uint8

const (
	// KindMemory is a Memory object: a registered buffer.
	KindMemory Kind = iota + 1
	// KindRequest is a Request object: an invocable RPC endpoint with
	// preset arguments.
	KindRequest
)

func (k Kind) String() string {
	switch k {
	case KindMemory:
		return "memory"
	case KindRequest:
		return "request"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Rights is a bitmask of authorities a capability conveys. Diminish
// and delegation may only ever clear bits, never set them.
type Rights uint8

const (
	// Read permits reading the memory object (source of memory_copy).
	Read Rights = 1 << iota
	// Write permits writing the memory object (target of memory_copy).
	Write
	// Invoke permits request_invoke on a Request object.
	Invoke
	// Grant permits delegating the capability onward (passing it as a
	// Request argument) and deriving from it.
	Grant
)

// All is the full rights mask appropriate for any object kind.
const All = Read | Write | Invoke | Grant

// MemRights are the rights meaningful for Memory objects.
const MemRights = Read | Write | Grant

// ReqRights are the rights meaningful for Request objects.
const ReqRights = Invoke | Grant

func (r Rights) String() string {
	b := []byte("----")
	if r&Read != 0 {
		b[0] = 'r'
	}
	if r&Write != 0 {
		b[1] = 'w'
	}
	if r&Invoke != 0 {
		b[2] = 'i'
	}
	if r&Grant != 0 {
		b[3] = 'g'
	}
	return string(b)
}

// Has reports whether r includes all rights in want.
func (r Rights) Has(want Rights) bool { return r&want == want }

// Diminish returns r with the drop bits cleared. The result is always
// a subset of r (the monotonicity invariant the property tests check).
func (r Rights) Diminish(drop Rights) Rights { return r &^ drop }

// Ref is the global, location-independent name of a FractOS object:
// the owning Controller, the object ID there, and the epoch the
// reference was minted under.
type Ref struct {
	Ctrl  ControllerID
	Obj   ObjectID
	Epoch Epoch
}

// IsZero reports whether the Ref is the zero (invalid) reference.
func (r Ref) IsZero() bool { return r == Ref{} }

func (r Ref) String() string {
	return fmt.Sprintf("ref(c%d/o%d/e%d)", r.Ctrl, r.Obj, r.Epoch)
}

// Entry is one slot of a Process's capability space, maintained by the
// Process's Controller on its behalf.
type Entry struct {
	Ref    Ref
	Kind   Kind
	Rights Rights
	// Monitored marks capabilities derived from a monitor_delegate
	// target: further delegations must notify the owner (§3.6).
	Monitored bool
	// Leased marks entries whose object is a monitor_delegatee child
	// created specifically for this holder: if the holder fails, its
	// Controller revokes the child so the delegator observes the
	// failure (§3.6's failure-translation model).
	Leased bool
	// Once marks a delegated reply Request, good for one delivery: the
	// Controller drops the entry when it forwards an invocation through it.
	Once bool
	// Size caches the extent of a Memory object so the Process can
	// size buffers without a round trip; authoritative checks still
	// happen at the owner.
	Size uint64
	// Delivery is the sequence number of the request_receive descriptor
	// that installed the entry (0: none did): its acknowledgement hands back
	// only that, not a cid dropped meanwhile (a spent reply's) and reissued.
	Delivery uint64
}

// spacePageBits sizes Space slab pages: 512 56-byte slots per page
// keeps page allocations at 28 KiB while bounding the page directory to
// index/512 pointers.
const spacePageBits = 9

type spacePage [1 << spacePageBits]capSlot

// capSlot is one slab slot of a Space: the entry, the slot's current
// generation, and whether it is live. gen persists across reuse so a
// recycled slot mints a distinguishable cid after an OS-side purge.
type capSlot struct {
	e    Entry
	gen  uint32
	live bool
}

// Space is a Process's capability space: a paged slab of entries
// addressed by {index, generation} cids. Slots dropped by the Process
// are reused under the same generation (the Process surrendered the
// cid, so handing the identical cid back is safe and keeps spaces
// compact); slots purged by the OS are reused under a bumped
// generation, so the purged cid stays permanently invalid.
type Space struct {
	pages []*spacePage
	free  []uint32 // reusable slot indices, LIFO
	next  uint32   // high-water slot count
	live  int
}

// NewSpace returns an empty capability space.
func NewSpace() *Space {
	return &Space{}
}

// slot returns the slot for a 0-based index, which must be < s.next.
func (s *Space) slot(idx uint32) *capSlot {
	return &s.pages[idx>>spacePageBits][idx&(1<<spacePageBits-1)]
}

// Install adds an entry and returns its new cid, or NilCap if the
// space has exhausted its 16M-slot index range.
func (s *Space) Install(e Entry) CapID {
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if s.next > capIdxMask-1 {
			return NilCap
		}
		idx = s.next
		s.next++
		if int(idx>>spacePageBits) == len(s.pages) {
			s.pages = append(s.pages, new(spacePage))
		}
	}
	sl := s.slot(idx)
	sl.e = e
	sl.live = true
	s.live++
	return CapID(sl.gen<<capIdxBits | (idx + 1))
}

// lookupSlot resolves a cid to its slot, or nil if the cid is invalid,
// out of range, freed, or from a superseded generation.
func (s *Space) lookupSlot(id CapID) *capSlot {
	u := uint32(id) & capIdxMask
	if u == 0 || u > s.next {
		return nil
	}
	sl := s.slot(u - 1)
	if !sl.live || sl.gen != uint32(id)>>capIdxBits {
		return nil
	}
	return sl
}

// Lookup returns the entry for cid.
//
//fractos:cap-resolve
func (s *Space) Lookup(id CapID) (Entry, bool) {
	sl := s.lookupSlot(id)
	if sl == nil {
		return Entry{}, false
	}
	return sl.e, true
}

// Peek returns a pointer to the live entry for cid, or nil. The
// pointer is stable across Install (the slab is paged, never
// reallocated) but is invalidated by Drop/PurgeRefs of the same cid;
// hot paths must not retain it across a yield.
//
//fractos:borrow
func (s *Space) Peek(id CapID) *Entry {
	sl := s.lookupSlot(id)
	if sl == nil {
		return nil
	}
	return &sl.e
}

// Update replaces the entry for an existing cid.
func (s *Space) Update(id CapID, e Entry) bool {
	sl := s.lookupSlot(id)
	if sl == nil {
		return false
	}
	sl.e = e
	return true
}

// Drop removes cid from the space, freeing the slot for reuse.
//
// The generation is deliberately NOT bumped: the Process itself
// surrendered the cid, so reissuing the identical cid for the next
// Install is safe (POSIX fd semantics) and keeps generation bits in
// reserve for OS-initiated purges.
func (s *Space) Drop(id CapID) bool {
	sl := s.lookupSlot(id)
	if sl == nil {
		return false
	}
	sl.live = false
	sl.e = Entry{}
	s.live--
	s.free = append(s.free, uint32(id)&capIdxMask-1)
	return true
}

// Len reports the number of live entries.
func (s *Space) Len() int { return s.live }

// ForEach visits every live entry in slot order. Slot order is
// deterministic but not install order once slots recycle; use it only
// for operations that are order-insensitive (e.g. cleanup).
func (s *Space) ForEach(fn func(CapID, Entry)) {
	for idx := uint32(0); idx < s.next; idx++ {
		sl := s.slot(idx)
		if sl.live {
			fn(CapID(sl.gen<<capIdxBits|(idx+1)), sl.e)
		}
	}
}

// PurgeRefs removes every entry whose Ref matches pred, returning the
// removed cids. Used by the revocation cleanup broadcast and the
// stale-epoch purge.
//
// Unlike Drop, purged slots recycle under a bumped generation: the
// removal is initiated by the OS, not the Process, so the Process may
// still hold the cid — the bump keeps that stale handle permanently
// invalid while letting the slot itself be reused. A slot whose
// generation counter saturates is retired instead of wrapped, so
// aliasing is impossible even after 255 purges of one slot.
func (s *Space) PurgeRefs(pred func(Ref) bool) []CapID {
	var dropped []CapID
	for idx := uint32(0); idx < s.next; idx++ {
		sl := s.slot(idx)
		if !sl.live || !pred(sl.e.Ref) {
			continue
		}
		dropped = append(dropped, CapID(sl.gen<<capIdxBits|(idx+1)))
		s.purge(sl, idx)
	}
	return dropped
}

// purge frees a live slot the OS removed: it recycles under a bumped
// generation, or retires once the generation counter saturates.
func (s *Space) purge(sl *capSlot, idx uint32) {
	sl.live = false
	sl.e = Entry{}
	s.live--
	if sl.gen < capMaxGen {
		sl.gen++
		s.free = append(s.free, idx)
	}
}
