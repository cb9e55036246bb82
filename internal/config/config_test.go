package config

import (
	"testing"

	"gamma/internal/sim"
)

func TestDefaultMatchesPaperConstants(t *testing.T) {
	p := Default()
	if p.CPU.MIPS != 0.6 {
		t.Errorf("MIPS = %v; the VAX 11/750 is 0.6 (§5.2.2)", p.CPU.MIPS)
	}
	if p.TuplesPerPage() != 17 {
		t.Errorf("tuples per 4KB page = %d, want 17 (§5.1)", p.TuplesPerPage())
	}
	if p.Net.PacketBytes != 2048 {
		t.Errorf("packet = %d, want 2KB (§5.2.1)", p.Net.PacketBytes)
	}
	if p.Net.CtlMsg != 7*sim.Millisecond {
		t.Errorf("control message = %v, want 7ms (§6.2.3)", p.Net.CtlMsg)
	}
	if p.Engine.MsgsPerOperatorInit != 4 {
		t.Errorf("init messages = %d, want 4 (§6.2.3)", p.Engine.MsgsPerOperatorInit)
	}
	if p.Tera.AMPs != 20 {
		t.Errorf("Teradata has %d AMPs, want 20 (§3)", p.Tera.AMPs)
	}
	if p.Tera.InsertIOs < 3 {
		t.Errorf("insert I/Os = %d; §4 says at least 3", p.Tera.InsertIOs)
	}
	// A 10,000-tuple fragment must occupy 589 pages (§5.1).
	if pages := (10000 + p.TuplesPerPage() - 1) / p.TuplesPerPage(); pages != 589 {
		t.Errorf("10k tuples = %d pages, want 589", pages)
	}
}

func TestCPUTime(t *testing.T) {
	c := CPU{MIPS: 0.6}
	if got := c.Time(600); got != 1000 {
		t.Errorf("600 instructions at 0.6 MIPS = %v us, want 1000", got)
	}
	if got := c.Time(0); got != 0 {
		t.Errorf("Time(0) = %v", got)
	}
	if got := c.Time(-5); got != 0 {
		t.Errorf("Time(-5) = %v", got)
	}
}

func TestDiskTransferMatchesPaper(t *testing.T) {
	p := Default()
	// §5.2.2: a 32 KB page transfers in ~13 ms.
	got := p.Disk.TransferTime(32 * 1024)
	if got < 12*sim.Millisecond || got > 14*sim.Millisecond {
		t.Errorf("32KB transfer = %v, want ~13ms", got)
	}
}

func TestNICTimes(t *testing.T) {
	p := Default()
	// 4 Mbit/s Unibus: a 2 KB packet takes ~4.1 ms.
	got := p.Net.NICTime(2048)
	if got < 4000 || got > 4200 {
		t.Errorf("2KB over Unibus = %v us, want ~4096", got)
	}
	// The 80 Mbit/s ring is 20x faster.
	if ring := p.Net.RingTime(2048); ring*15 > got {
		t.Errorf("ring (%v) should be much faster than the Unibus (%v)", ring, got)
	}
}

func TestPageSizeDerivedQuantities(t *testing.T) {
	p := Default()
	for _, ps := range []int{2048, 4096, 8192, 16384, 32768} {
		p.PageBytes = ps
		if p.TuplesPerPage() != ps/240 {
			t.Errorf("page %d: tuples = %d", ps, p.TuplesPerPage())
		}
		if p.IndexFanout() != ps/16 {
			t.Errorf("page %d: fanout = %d", ps, p.IndexFanout())
		}
	}
	if p.TuplesPerPacket() != 2048/208 {
		t.Errorf("tuples per packet = %d", p.TuplesPerPacket())
	}
}
