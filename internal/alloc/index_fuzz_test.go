package alloc

// Fuzz harness for the placement index: arbitrary byte strings become
// place/release sequences on a columnar fleet, and after every
// operation each policy query is checked against the oracle's scan,
// with a full oracle walk at the end. Any reachable index state that
// disagrees with the scan — however contrived the interleaving — is a
// crash.

import "testing"

// runIndexOps interprets data as 3-byte (op, a, b) tuples:
//
//	op bit 7 set:  release the live placement selected by (a, b)
//	op bit 7 clear: place via policy (op>>1)%3, PreferNonEmpty op&1,
//	                request (opCores[a%n], opMem[b%n])
func runIndexOps(t *testing.T, data []byte) {
	type placement struct {
		id   int32
		c, m float64
	}
	p := newMirrorPool(indexClass(), 9)
	var live []placement
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		if op&0x80 != 0 {
			if len(live) == 0 {
				continue
			}
			k := (int(a)<<8 | int(b)) % len(live)
			pl := live[k]
			p.unplace(pl.id, pl.c, pl.m)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			c := opCores[int(a)%len(opCores)]
			m := opMem[int(b)%len(opMem)]
			pol := Policy((op >> 1) % 3)
			id := p.f.pick(c, m, pol, op&1 == 1)
			if want := pick(p.servers, c, m, pol, op&1 == 1); id != want {
				t.Fatalf("op %d: pick(%g, %g, %v, %v) fleet %d, scan %d",
					i/3, c, m, pol, op&1 == 1, id, want)
			}
			if id != nilNode {
				p.place(id, c, m)
				live = append(live, placement{id, c, m})
			}
		}
		comparePicks(t, p, opCores[int(b)%len(opCores)], opMem[int(a)%len(opMem)])
	}
	checkOracle(t, p)
}

func FuzzPlacementIndex(f *testing.F) {
	// Fill, drain, and churn seeds; the fuzzer mutates from here.
	f.Add([]byte{0x00, 0x00, 0x00, 0x03, 0x01, 0x02, 0x05, 0x02, 0x01, 0x80, 0x00, 0x00})
	f.Add([]byte{0x02, 0x02, 0x03, 0x02, 0x02, 0x03, 0x04, 0x04, 0x04, 0x81, 0x00, 0x01, 0x01, 0x01, 0x01})
	f.Add([]byte{0x05, 0x03, 0x02, 0x05, 0x03, 0x02, 0x80, 0xff, 0xff, 0x00, 0x04, 0x04, 0x03, 0x00, 0x00})
	f.Fuzz(runIndexOps)
}
