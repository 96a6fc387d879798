package disk

import (
	"bytes"
	"testing"

	"xok/internal/fault"
	"xok/internal/sim"
)

// pattern fills a 4-KB page with a recognizable byte.
func pattern(b byte) []byte {
	p := make([]byte, sim.DiskBlockSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestReadMediaErrorInjection(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, nil, 1024, WithFaults(&fault.Plan{Seed: 3, ReadErrRate: 1}))
	d.PokeBlock(5, pattern(0xAB))
	page := make([]byte, sim.DiskBlockSize)
	var got *Request
	d.Submit(&Request{Block: 5, Count: 1, Pages: [][]byte{page},
		Done: func(r *Request) { got = r }})
	eng.Run()
	if got == nil || got.Err != fault.ErrMedia {
		t.Fatalf("request err = %v, want ErrMedia", got.Err)
	}
	if page[0] == 0xAB {
		t.Fatal("failed read still transferred data")
	}
	// Writes never carry media errors.
	var wr *Request
	d.Submit(&Request{Write: true, Block: 6, Count: 1, Pages: [][]byte{pattern(1)},
		Done: func(r *Request) { wr = r }})
	eng.Run()
	if wr == nil || wr.Err != nil {
		t.Fatalf("write err = %v", wr.Err)
	}
}

func TestStripedReadErrorPropagates(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, nil, 1024,
		WithStriping(2, 1),
		WithFaults(&fault.Plan{Seed: 3, ReadErrRate: 1}))
	var got *Request
	d.Submit(&Request{Block: 0, Count: 4, Done: func(r *Request) { got = r }})
	eng.Run()
	if got == nil || got.Err != fault.ErrMedia {
		t.Fatalf("striped parent err = %v, want ErrMedia", got.Err)
	}
}

func TestWriteBoundaryObserver(t *testing.T) {
	eng := sim.NewEngine()
	plan := &fault.Plan{}
	var at []sim.Time
	var blocks []int64
	plan.ObserveWrites(func(t sim.Time, b int64, n int) {
		at = append(at, t)
		blocks = append(blocks, b)
	})
	d := New(eng, nil, 1024, WithFaults(plan))
	d.Submit(&Request{Write: true, Block: 7, Count: 2})
	d.Submit(&Request{Block: 9, Count: 1}) // a read: not a boundary
	eng.Run()
	if len(at) != 1 || blocks[0] != 7 || at[0] == 0 {
		t.Fatalf("observed writes at %v blocks %v, want one boundary at block 7", at, blocks)
	}
}

func TestCrashImageTornWrite(t *testing.T) {
	const nblk = 4
	mid := func(torn bool) Image {
		eng := sim.NewEngine()
		var plan *fault.Plan
		if torn {
			plan = &fault.Plan{TornWrites: true}
		}
		d := New(eng, nil, 1024, WithFaults(plan))
		pages := make([][]byte, nblk)
		for i := range pages {
			pages[i] = pattern(byte(0x10 + i))
		}
		d.Submit(&Request{Write: true, Block: 0, Count: nblk, Pages: pages})
		// Head starts at block 0, so service is controller overhead +
		// transfer only. Stop mid-transfer of block 2 (half-way in).
		eng.RunUntil(sim.DiskControllerOverhead + sim.DiskTransferPerBlock*5/2)
		return d.CrashImage()
	}

	// Without torn writes armed, the in-flight request must vanish.
	if img := mid(false); len(img) != 0 {
		t.Fatalf("untorn crash image has %d blocks, want 0", len(img))
	}

	img := mid(true)
	// Blocks 0 and 1 transferred whole; block 2 is half-written; block
	// 3 never reached the media.
	for i := 0; i < 2; i++ {
		if !bytes.Equal(img[BlockNo(i)], pattern(byte(0x10+i))) {
			t.Fatalf("block %d not fully applied in torn image", i)
		}
	}
	b2, ok := img[2]
	if !ok {
		t.Fatal("torn block 2 missing")
	}
	half := sim.DiskBlockSize / 2
	if !bytes.Equal(b2[:half], pattern(0x12)[:half]) {
		t.Fatal("torn block 2 prefix not the new data")
	}
	if !bytes.Equal(b2[half:], make([]byte, sim.DiskBlockSize-half)) {
		t.Fatal("torn block 2 suffix should be the old (zero) data")
	}
	if _, ok := img[3]; ok {
		t.Fatal("block 3 appeared although never transferred")
	}
}

// The constructor forms that replaced the deprecated NewStriped shim:
// nil stats are accepted, WithStriping sets the spindle count and the
// default is one spindle.
func TestDeprecatedConstructorsStillWork(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, nil, 1024, WithStriping(4, 8))
	if d.Spindles() != 4 {
		t.Fatalf("spindles = %d", d.Spindles())
	}
	if d2 := New(eng, nil, 64); d2.Spindles() != 1 {
		t.Fatalf("default spindles = %d", d2.Spindles())
	}
}
