package alloc

// Simulator checkpoints: the GSFS binary codec.
//
// Between Steps, a Sim's entire state is flat data — columns, running
// sums, the departure heap's backing array, a few scalars. Snapshot
// serializes exactly that and Restore rebuilds it, so a restored
// simulator continues bit-identically to one that never paused: same
// placements, same Result bits (the property suite proves this at
// every event boundary). That makes checkpoints two things at once —
// a resume point for long replays, and a fork point for what-if
// placement runs (gsfd's replay endpoint restores one snapshot many
// times under different deciders).
//
// Layout: "GSFS" magic, a uvarint version, a uvarint payload length,
// an IEEE CRC32 of the payload, then the payload. The CRC turns any
// torn write or bit flip into a refusal rather than a silently wrong
// continuation. Within the payload, floats travel as raw IEEE bits
// (checkpoint state is drifted mid-computation data, where exactness
// matters and round-number compression does not), counts as uvarints.
// The departure heap is written in backing-array order and restored
// verbatim, preserving the pop order of equal-time departures.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/units"
)

const (
	snapMagic   = "GSFS"
	snapVersion = 1
	// maxSnapName caps decoded string lengths. Slice lengths are
	// bounded by the payload bytes actually present, so a corrupted
	// count cannot demand an absurd allocation.
	maxSnapName = 1 << 12
	// Minimum encoded sizes of the repeated records, which bound the
	// counts a payload of a given length can honestly declare.
	minServerBytes    = 8 + 8 + 1 + 8
	minDepartureBytes = 4*8 + 1 + 1
)

type snapWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *snapWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *snapWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], math.Float64bits(v))
	w.buf.Write(w.tmp[:8])
}

func (w *snapWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *snapWriter) bool(b bool) {
	if b {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

func (w *snapWriter) class(c *ServerClass) {
	w.str(c.Name)
	w.uvarint(uint64(c.Cores))
	w.f64(float64(c.Memory))
	w.f64(float64(c.LocalMemory))
	w.bool(c.Green)
}

func (w *snapWriter) fleet(f *fleet) {
	w.uvarint(uint64(f.frontier))
	for id := int32(0); id < f.frontier; id++ {
		w.f64(f.coresFree[id])
		w.f64(f.memFree[id])
		w.uvarint(uint64(f.vms[id]))
		w.f64(f.touched[id])
	}
}

func (w *snapWriter) agg(a *aggregator) {
	w.f64(a.corePackSum)
	w.f64(a.memPackSum)
	w.uvarint(uint64(a.packObs))
	w.f64(a.maxMemUtilSum)
	w.f64(a.cxlFracSum)
	w.uvarint(uint64(a.cxlObs))
	w.uvarint(uint64(a.localFits))
	w.uvarint(uint64(a.observed))
}

// Snapshot writes a GSFS checkpoint of the simulator's current state.
// Call it only between Steps (or before Finish); a finished simulator
// has drained its audit state and is not resumable.
func (s *Sim) Snapshot(w io.Writer) error {
	var p snapWriter
	p.str(s.name)
	p.uvarint(uint64(s.cfg.Policy))
	p.bool(s.cfg.PreferNonEmpty)
	p.uvarint(uint64(s.cfg.NBase))
	p.uvarint(uint64(s.cfg.NGreen))
	p.f64(s.snapEvery)
	p.class(&s.cfg.Base)
	p.class(&s.cfg.Green)

	p.f64(s.lastArrive)
	p.uvarint(uint64(s.events))
	p.f64(s.nextSnap)
	p.uvarint(uint64(s.res.Placed))
	p.uvarint(uint64(s.res.Rejected))
	p.uvarint(uint64(s.res.DeferrablePlaced))
	p.uvarint(uint64(s.res.DeferrableRejected))
	p.uvarint(uint64(s.res.Snapshots))

	p.fleet(&s.pools[0])
	p.fleet(&s.pools[1])
	p.agg(&s.aggs[0])
	p.agg(&s.aggs[1])

	p.uvarint(uint64(len(s.deps)))
	for i := range s.deps {
		d := &s.deps[i]
		p.f64(d.at)
		p.f64(d.cores)
		p.f64(d.mem)
		p.f64(d.touched)
		p.uvarint(uint64(d.id))
		p.bool(d.pool == 1)
	}

	payload := p.buf.Bytes()
	var hdr snapWriter
	hdr.buf.WriteString(snapMagic)
	hdr.uvarint(snapVersion)
	hdr.uvarint(uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr.tmp[:4], crc32.ChecksumIEEE(payload))
	hdr.buf.Write(hdr.tmp[:4])
	if _, err := w.Write(hdr.buf.Bytes()); err != nil {
		return fmt.Errorf("alloc: writing snapshot header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("alloc: writing snapshot payload: %w", err)
	}
	return nil
}

type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) fail(what string) error {
	return fmt.Errorf("alloc: corrupt snapshot: %s at offset %d", what, r.off)
}

func (r *snapReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.fail(what)
	}
	r.off += n
	return v, nil
}

func (r *snapReader) f64(what string) (float64, error) {
	if r.off+8 > len(r.b) {
		return 0, r.fail(what)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

// finite reads a float that live simulator state never holds as NaN
// or ±Inf: the placement index orders servers by these values, and a
// non-finite key would break its ordering.
func (r *snapReader) finite(what string) (float64, error) {
	v, err := r.f64(what)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, r.fail(what)
	}
	return v, err
}

// remaining reports how many payload bytes are left to decode.
func (r *snapReader) remaining() uint64 { return uint64(len(r.b) - r.off) }

func (r *snapReader) str(what string) (string, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > maxSnapName || r.off+int(n) > len(r.b) {
		return "", r.fail(what)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *snapReader) bool(what string) (bool, error) {
	if r.off >= len(r.b) {
		return false, r.fail(what)
	}
	b := r.b[r.off]
	r.off++
	if b > 1 {
		return false, r.fail(what)
	}
	return b == 1, nil
}

func (r *snapReader) class(c *ServerClass) error {
	name, err := r.str("class name")
	if err != nil {
		return err
	}
	cores, err := r.uvarint("class cores")
	if err != nil {
		return err
	}
	mem, err := r.f64("class memory")
	if err != nil {
		return err
	}
	local, err := r.f64("class local memory")
	if err != nil {
		return err
	}
	green, err := r.bool("class green")
	if err != nil {
		return err
	}
	*c = ServerClass{Name: name, Cores: int(cores), Green: green,
		Memory: units.GB(mem), LocalMemory: units.GB(local)}
	return nil
}

func (r *snapReader) fleet(f *fleet) error {
	frontier, err := r.uvarint("fleet frontier")
	if err != nil {
		return err
	}
	if frontier > uint64(f.n) {
		return r.fail("frontier past pool size")
	}
	if frontier > r.remaining()/minServerBytes {
		return r.fail("fleet frontier")
	}
	n := int32(frontier)
	f.coresFree = make([]float64, n)
	f.memFree = make([]float64, n)
	f.vms = make([]int32, n)
	f.touched = make([]float64, n)
	// The snapshot does not record why servers were opened, so nothing
	// is proven about them (PoolProof).
	f.forced = make([]bool, n)
	for id := int32(0); id < n; id++ {
		if f.coresFree[id], err = r.finite("server cores"); err != nil {
			return err
		}
		if f.memFree[id], err = r.finite("server memory"); err != nil {
			return err
		}
		vms, err := r.uvarint("server vm count")
		if err != nil {
			return err
		}
		if vms > math.MaxInt32 {
			return r.fail("server vm count")
		}
		f.vms[id] = int32(vms)
		if f.touched[id], err = r.finite("server touched memory"); err != nil {
			return err
		}
	}
	// Rebuild the index from the restored columns. Treap shapes can
	// differ from the writer's when priorities collide, but every index
	// query is key-deterministic, so decisions are unaffected.
	f.frontier = n
	if n > 0 {
		f.ix.initCore(int(n))
		for id := int32(0); id < n; id++ {
			f.ix.attachID(id, f.coresFree[id], f.memFree[id], f.vms[id] > 0)
		}
	}
	return nil
}

func (r *snapReader) agg(a *aggregator) error {
	var err error
	if a.corePackSum, err = r.f64("aggregator sums"); err != nil {
		return err
	}
	if a.memPackSum, err = r.f64("aggregator sums"); err != nil {
		return err
	}
	packObs, err := r.uvarint("aggregator counts")
	if err != nil {
		return err
	}
	if a.maxMemUtilSum, err = r.f64("aggregator sums"); err != nil {
		return err
	}
	if a.cxlFracSum, err = r.f64("aggregator sums"); err != nil {
		return err
	}
	cxlObs, err := r.uvarint("aggregator counts")
	if err != nil {
		return err
	}
	localFits, err := r.uvarint("aggregator counts")
	if err != nil {
		return err
	}
	observed, err := r.uvarint("aggregator counts")
	if err != nil {
		return err
	}
	a.packObs, a.cxlObs = int(packObs), int(cxlObs)
	a.localFits, a.observed = int(localFits), int(observed)
	return nil
}

// Restore reads a GSFS checkpoint and returns a simulator that
// continues bit-identically from where Snapshot was taken. The decider
// and audit checker are live code, not data, so the caller supplies
// them again; nil means AdoptNone and the process-default checker, as
// in NewSim. Corruption anywhere — header, length, payload — is
// rejected, never partially applied.
func Restore(rd io.Reader, decide Decider, chk audit.Checker) (*Sim, error) {
	var magic [4]byte
	if _, err := io.ReadFull(rd, magic[:]); err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot magic: %w", err)
	}
	if string(magic[:]) != snapMagic {
		return nil, fmt.Errorf("alloc: not a GSFS snapshot (magic %q)", magic[:])
	}
	br := byteReaderOf(rd)
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot version: %w", err)
	}
	if version != snapVersion {
		return nil, fmt.Errorf("alloc: unsupported snapshot version %d (have %d)", version, snapVersion)
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot length: %w", err)
	}
	if plen > 1<<34 {
		return nil, fmt.Errorf("alloc: snapshot payload length %d implausible", plen)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(rd, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot checksum: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
	// Read through a bound rather than allocating plen up front: the
	// header is untrusted, so memory must track the bytes present.
	payload, err := io.ReadAll(io.LimitReader(rd, int64(plen)))
	if err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot payload: %w", err)
	}
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("alloc: reading snapshot payload: %w", io.ErrUnexpectedEOF)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("alloc: snapshot checksum mismatch: payload %08x, header %08x", got, wantCRC)
	}

	r := &snapReader{b: payload}
	s := &Sim{router: router{decide: decide}, chk: audit.Resolve(chk)}
	if s.decide == nil {
		s.decide = AdoptNone
	}
	if s.name, err = r.str("name"); err != nil {
		return nil, err
	}
	pol, err := r.uvarint("policy")
	if err != nil {
		return nil, err
	}
	s.cfg.Policy = Policy(pol)
	if s.cfg.PreferNonEmpty, err = r.bool("prefer-non-empty"); err != nil {
		return nil, err
	}
	nBase, err := r.uvarint("base pool size")
	if err != nil {
		return nil, err
	}
	nGreen, err := r.uvarint("green pool size")
	if err != nil {
		return nil, err
	}
	if nBase > math.MaxInt32 || nGreen > math.MaxInt32 {
		return nil, r.fail("pool size")
	}
	s.cfg.NBase, s.cfg.NGreen = int(nBase), int(nGreen)
	if s.snapEvery, err = r.finite("snapshot interval"); err != nil {
		return nil, err
	}
	if !(s.snapEvery > 0) {
		// Step's snapshot loop would never advance.
		return nil, r.fail("snapshot interval")
	}
	s.cfg.SnapshotEvery = s.snapEvery
	if err := r.class(&s.cfg.Base); err != nil {
		return nil, err
	}
	if err := r.class(&s.cfg.Green); err != nil {
		return nil, err
	}
	if validateConfig(s.cfg) != nil {
		return nil, r.fail("pool configuration")
	}

	if s.lastArrive, err = r.f64("last arrival"); err != nil {
		return nil, err
	}
	events, err := r.uvarint("event count")
	if err != nil {
		return nil, err
	}
	s.events = int(events)
	if s.nextSnap, err = r.finite("next snapshot time"); err != nil {
		return nil, err
	}
	// A live simulator's next snapshot is at least one interval in,
	// past the last arrival, and small enough that adding the interval
	// still moves it — otherwise Step's snapshot loop would spin.
	if s.nextSnap < s.snapEvery || !(s.nextSnap > s.lastArrive) || !(s.nextSnap+s.snapEvery > s.nextSnap) {
		return nil, r.fail("next snapshot time")
	}
	for _, c := range []*int{&s.res.Placed, &s.res.Rejected, &s.res.DeferrablePlaced, &s.res.DeferrableRejected, &s.res.Snapshots} {
		v, err := r.uvarint("result counter")
		if err != nil {
			return nil, err
		}
		*c = int(v)
	}

	s.pools = []fleet{newFleet(s.cfg.Base, s.cfg.NBase), newFleet(s.cfg.Green, s.cfg.NGreen)}
	s.aggs = make([]aggregator, 2)
	for i := range s.pools {
		if err := r.fleet(&s.pools[i]); err != nil {
			return nil, err
		}
	}
	for i := range s.aggs {
		if err := r.agg(&s.aggs[i]); err != nil {
			return nil, err
		}
	}

	nDeps, err := r.uvarint("departure count")
	if err != nil {
		return nil, err
	}
	if nDeps > r.remaining()/minDepartureBytes {
		return nil, r.fail("departure count")
	}
	s.deps = make(colDepHeap, nDeps)
	for i := range s.deps {
		d := &s.deps[i]
		if d.at, err = r.finite("departure time"); err != nil {
			return nil, err
		}
		if d.cores, err = r.finite("departure cores"); err != nil {
			return nil, err
		}
		if d.mem, err = r.finite("departure memory"); err != nil {
			return nil, err
		}
		if d.touched, err = r.finite("departure touched memory"); err != nil {
			return nil, err
		}
		id, err := r.uvarint("departure server id")
		if err != nil {
			return nil, err
		}
		green, err := r.bool("departure pool")
		if err != nil {
			return nil, err
		}
		if green {
			d.pool = 1
		}
		if id >= uint64(s.pools[d.pool].frontier) {
			return nil, r.fail("departure names an untouched server")
		}
		d.id = int32(id)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("alloc: corrupt snapshot: %d trailing payload bytes", len(payload)-r.off)
	}
	// A snapshot is a complete artifact, not a stream element: anything
	// after the declared payload is corruption.
	var one [1]byte
	if _, err := io.ReadFull(rd, one[:]); err != io.EOF {
		return nil, fmt.Errorf("alloc: corrupt snapshot: trailing data after payload")
	}
	return s, nil
}

// byteReaderOf adapts any reader for binary.ReadUvarint without
// over-reading: one byte at a time unless the reader already is one.
func byteReaderOf(r io.Reader) io.ByteReader {
	if br, ok := r.(io.ByteReader); ok {
		return br
	}
	return &oneByteReader{r: r}
}

type oneByteReader struct {
	r   io.Reader
	buf [1]byte
}

func (o *oneByteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(o.r, o.buf[:1])
	return o.buf[0], err
}
