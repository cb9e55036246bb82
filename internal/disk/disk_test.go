package disk

import (
	"testing"

	"gamma/internal/config"
	"gamma/internal/sim"
)

func testCfg() config.Disk {
	return config.Disk{
		SeqPos:  10 * sim.Millisecond,
		RandPos: 20 * sim.Millisecond,
		USPerKB: 500 * sim.Microsecond,
	}
}

func TestSequentialVsRandomCost(t *testing.T) {
	s := sim.New()
	d := New(s, "disk", testCfg())
	var t1, t2, t3 sim.Time
	s.Spawn("reader", func(p *sim.Proc) {
		d.Read(p, 1, 0, 4096) // first access: random
		t1 = p.Now()
		d.Read(p, 1, 1, 4096) // next page: sequential
		t2 = p.Now()
		d.Read(p, 1, 5, 4096) // skip: random
		t3 = p.Now()
	})
	s.Run()
	transfer := sim.Dur(2 * sim.Millisecond) // 4 KB at 500 us/KB
	if want := 20*sim.Millisecond + transfer; t1 != want {
		t.Errorf("first read finished at %v, want %v", t1, want)
	}
	if want := t1 + 10*sim.Millisecond + transfer; t2 != want {
		t.Errorf("sequential read finished at %v, want %v", t2, want)
	}
	if want := t2 + 20*sim.Millisecond + transfer; t3 != want {
		t.Errorf("skip read finished at %v, want %v", t3, want)
	}
	st := d.Stats()
	if st.SeqReads != 1 || st.RandReads != 2 {
		t.Errorf("stats = %+v, want 1 seq / 2 rand reads", st)
	}
}

func TestInterleavedFilesAreRandom(t *testing.T) {
	s := sim.New()
	d := New(s, "disk", testCfg())
	s.Spawn("mix", func(p *sim.Proc) {
		d.Read(p, 1, 0, 4096)
		d.Write(p, 2, 0, 4096) // different file: random
		d.Read(p, 1, 1, 4096)  // would be sequential, but file 2 moved the arm
	})
	s.Run()
	st := d.Stats()
	if st.SeqReads != 0 || st.RandReads != 2 || st.RandWrites != 1 {
		t.Errorf("stats = %+v, want all random", st)
	}
}

func TestPureSequentialScanStaysSequential(t *testing.T) {
	s := sim.New()
	d := New(s, "disk", testCfg())
	s.Spawn("scan", func(p *sim.Proc) {
		for pg := 0; pg < 100; pg++ {
			d.Read(p, 7, pg, 4096)
		}
	})
	s.Run()
	st := d.Stats()
	if st.SeqReads != 99 || st.RandReads != 1 {
		t.Errorf("stats = %+v, want 99 seq / 1 rand", st)
	}
	if st.BytesRead != 100*4096 {
		t.Errorf("bytes read = %d", st.BytesRead)
	}
}

func TestWriteAsyncDoesNotBlock(t *testing.T) {
	s := sim.New()
	d := New(s, "disk", testCfg())
	var after sim.Time
	s.Spawn("w", func(p *sim.Proc) {
		d.WriteAsync(3, 0, 4096)
		after = p.Now()
	})
	end := s.Run()
	if after != 0 {
		t.Errorf("caller advanced to %v", after)
	}
	if end != 22*sim.Millisecond {
		t.Errorf("drive finished at %v, want 22ms", end)
	}
}

func TestLargerPagesCostMoreTransfer(t *testing.T) {
	cfg := testCfg()
	s := sim.New()
	d := New(s, "disk", cfg)
	var small, large sim.Dur
	s.Spawn("r", func(p *sim.Proc) {
		start := p.Now()
		d.Read(p, 1, 0, 2048)
		small = p.Now() - start
		start = p.Now()
		d.Read(p, 2, 0, 32768)
		large = p.Now() - start
	})
	s.Run()
	if large-small != cfg.TransferTime(32768)-cfg.TransferTime(2048) {
		t.Errorf("transfer-time difference wrong: small=%v large=%v", small, large)
	}
}
