package alloc

// Hostile-input tests for the GSFS decoder. A checkpoint's CRC guards
// against torn writes, not against crafted bytes, so Restore must hold
// its own line: allocation bounded by the bytes actually present, and
// no CRC-valid state that hangs or crashes the simulator it returns.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

// frame wraps a payload in a GSFS header with a matching CRC.
func frame(payload []byte) []byte {
	var hdr snapWriter
	hdr.buf.WriteString(snapMagic)
	hdr.uvarint(snapVersion)
	hdr.uvarint(uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr.tmp[:4], crc32.ChecksumIEEE(payload))
	hdr.buf.Write(hdr.tmp[:4])
	return append(hdr.buf.Bytes(), payload...)
}

// restoreCase is a small simulator with one VM resident on each pool,
// stopped mid-replay: the state every decoder test starts from.
func restoreCase(t testing.TB) *Sim {
	t.Helper()
	evenAdopt := func(vm trace.VM) Decision { return Decision{Adopt: vm.ID%2 == 0, Scale: 1.1} }
	sim, err := NewSim("restore", Config{Base: baseClass(), NBase: 3, Green: greenClass(), NGreen: 2, SnapshotEvery: 6}, evenAdopt)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range smallTrace().VMs {
		if err := sim.Step(vm); err != nil {
			t.Fatal(err)
		}
	}
	return sim
}

// payloadOf returns the checkpoint payload (the bytes after the header).
func payloadOf(t testing.TB, s *Sim) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes()[len(snapMagic):])
	if _, err := binary.ReadUvarint(r); err != nil { // version
		t.Fatal(err)
	}
	if _, err := binary.ReadUvarint(r); err != nil { // length
		t.Fatal(err)
	}
	return buf.Bytes()[buf.Len()-r.Len()+4:]
}

// fieldsThrough re-encodes the payload's leading fields — everything
// before the baseline pool's frontier — so tests can splice the bytes
// that follow them.
func fieldsThrough(s *Sim) *snapWriter {
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
	for _, c := range []int{s.res.Placed, s.res.Rejected, s.res.DeferrablePlaced, s.res.DeferrableRejected, s.res.Snapshots} {
		p.uvarint(uint64(c))
	}
	return &p
}

// splice replaces the one-byte uvarint at off with v's encoding.
func splice(payload []byte, off int, v uint64) []byte {
	var w snapWriter
	w.uvarint(v)
	return append(append(bytes.Clone(payload[:off]), w.buf.Bytes()...), payload[off+1:]...)
}

// TestRestoreBoundsPayloadAllocation: a 19-byte input whose header
// claims a 16 GiB payload must be refused without allocating for it.
func TestRestoreBoundsPayloadAllocation(t *testing.T) {
	var hdr snapWriter
	hdr.buf.WriteString(snapMagic)
	hdr.uvarint(snapVersion)
	hdr.uvarint(1 << 34)
	hdr.buf.Write([]byte{0, 0, 0, 0, 1, 2, 3, 4, 5})
	in := hdr.buf.Bytes()
	if len(in) != 19 {
		t.Fatalf("probe is %d bytes, want 19", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Restore(bytes.NewReader(in), nil, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Restore accepted a payload far shorter than its header claims")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Restore allocated %d bytes for a 19-byte input", grew)
	}
}

// TestRestoreBoundsFrontierAllocation: a pool claiming 2^30 touched
// servers in a payload that holds one must be refused before the
// columns are allocated.
func TestRestoreBoundsFrontierAllocation(t *testing.T) {
	sim := restoreCase(t)
	sim.cfg.NBase = math.MaxInt32
	good := payloadOf(t, sim)
	bad := splice(good, fieldsThrough(sim).buf.Len(), 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Restore(bytes.NewReader(frame(bad)), nil, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Restore accepted a frontier the payload cannot hold")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Restore allocated %d bytes for a %d-byte payload", grew, len(bad))
	}
}

// TestRestoreRejectsVMCountOverflow: a server's resident-VM count of
// 2^31 does not fit the int32 column and must be refused, not wrapped
// to a negative count.
func TestRestoreRejectsVMCountOverflow(t *testing.T) {
	sim := restoreCase(t)
	good := payloadOf(t, sim)
	p := fieldsThrough(sim)
	p.uvarint(uint64(sim.pools[0].frontier))
	p.f64(sim.pools[0].coresFree[0])
	p.f64(sim.pools[0].memFree[0])
	off := p.buf.Len()
	if sim.pools[0].vms[0] != 1 {
		t.Fatalf("server 0 hosts %d VMs, test expects 1", sim.pools[0].vms[0])
	}
	if _, err := Restore(bytes.NewReader(frame(splice(good, off, 1<<31))), nil, nil); err == nil {
		t.Fatal("Restore accepted a VM count of 2^31")
	} else if !strings.Contains(err.Error(), "vm count") {
		t.Fatalf("VM count refused for the wrong reason: %v", err)
	}
	// The largest count that fits still decodes.
	if _, err := Restore(bytes.NewReader(frame(splice(good, off, math.MaxInt32))), nil, nil); err != nil {
		t.Fatalf("Restore refused a VM count of MaxInt32: %v", err)
	}
}

// TestRestoreRejectsCraftedState: CRC-valid checkpoints of states
// NewSim never produces must be refused. Step's snapshot loop never
// ends under a non-positive or non-finite interval, or one too small
// to move the next snapshot time; a non-finite free capacity breaks
// the placement index's key order.
func TestRestoreRejectsCraftedState(t *testing.T) {
	cases := []struct {
		name, want string
		mutate     func(*Sim)
	}{
		{"zero interval", "snapshot interval", func(s *Sim) { s.snapEvery = 0 }},
		{"negative interval", "snapshot interval", func(s *Sim) { s.snapEvery = -6 }},
		{"infinite interval", "snapshot interval", func(s *Sim) { s.snapEvery = math.Inf(1) }},
		{"NaN interval", "snapshot interval", func(s *Sim) { s.snapEvery = math.NaN() }},
		{"next snapshot before interval", "next snapshot time", func(s *Sim) { s.nextSnap = s.snapEvery / 2 }},
		{"next snapshot at last arrival", "next snapshot time", func(s *Sim) { s.nextSnap, s.lastArrive = 7, 7 }},
		{"NaN next snapshot", "next snapshot time", func(s *Sim) { s.nextSnap = math.NaN() }},
		{"interval below next snapshot's precision", "next snapshot time", func(s *Sim) { s.snapEvery, s.nextSnap = 1, 1<<60 }},
		{"NaN free cores", "server cores", func(s *Sim) { s.pools[0].coresFree[0] = math.NaN() }},
		{"infinite free memory", "server memory", func(s *Sim) { s.pools[1].memFree[0] = math.Inf(-1) }},
		{"NaN departure", "departure cores", func(s *Sim) { s.deps[0].cores = math.NaN() }},
		{"capacity-less baseline", "pool configuration", func(s *Sim) { s.cfg.Base.Cores = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := restoreCase(t)
			tc.mutate(sim)
			var buf bytes.Buffer
			if err := sim.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Restore(bytes.NewReader(buf.Bytes()), nil, nil); err == nil {
				t.Fatal("Restore accepted the crafted state")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refused for the wrong reason: %v (want %q)", err, tc.want)
			}
		})
	}
}

// exerciseRestored drives a restored simulator through the operations
// a caller would perform — a Step, a re-checkpoint, a Finish — at times
// that cannot spin the snapshot loop, so a decoded state that panics
// or corrupts the index shows up as a crash. Crafted states may break
// the simulator's invariants; the caller's recorder absorbs those.
func exerciseRestored(t *testing.T, s *Sim) {
	at := s.lastArrive
	if math.IsInf(at, -1) {
		at = 0
	}
	_ = s.Step(trace.VM{ID: s.events, Arrive: at, Depart: at + 1, Cores: 2, Memory: 8, Gen: 3, MaxMemFrac: 0.5})
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("re-checkpointing a restored simulator: %v", err)
	}
	_, _ = Restore(bytes.NewReader(buf.Bytes()), nil, audit.NewRecorder())
	s.Finish(at)
}

// FuzzRestore feeds Restore arbitrary bytes twice: raw, to exercise
// header parsing, and framed with a valid CRC, so mutations reach the
// payload decoder instead of dying at the checksum. Whatever decodes
// must survive being stepped, re-checkpointed and finished.
func FuzzRestore(f *testing.F) {
	sim := restoreCase(f)
	f.Add(payloadOf(f, sim))
	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	fresh, err := NewSim("fresh", Config{Base: baseClass(), NBase: 1}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payloadOf(f, fresh))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frame(data)} {
			if s, err := Restore(bytes.NewReader(in), diffDecider, audit.NewRecorder()); err == nil {
				exerciseRestored(t, s)
			}
		}
	})
}
