package sim

import "testing"

func TestWaitUntilFutureAndPast(t *testing.T) {
	s := New()
	var at1, at2 Time
	s.Spawn("p", func(p *Proc) {
		p.WaitUntil(25)
		at1 = p.Now()
		p.WaitUntil(10) // already past: no-op
		at2 = p.Now()
	})
	s.Run()
	if at1 != 25 || at2 != 25 {
		t.Errorf("WaitUntil: %v, %v", at1, at2)
	}
}

func TestWaitUntilWithAsyncResource(t *testing.T) {
	// The UseAsync + WaitUntil pair is the read-ahead idiom: issue work,
	// continue, then block until it completes.
	s := New()
	r := s.NewResource("disk")
	var overlapped Time
	s.Spawn("p", func(p *Proc) {
		done := r.UseAsync(20 * Millisecond)
		p.Sleep(15 * Millisecond) // "CPU work" overlapping the I/O
		p.WaitUntil(done)
		overlapped = p.Now()
	})
	s.Run()
	if overlapped != 20*Millisecond {
		t.Errorf("overlap finished at %v, want 20ms (not 35ms)", overlapped)
	}
}

func TestSpawnAtFuture(t *testing.T) {
	s := New()
	var started Time
	s.SpawnAt(100, "late", func(p *Proc) { started = p.Now() })
	s.Run()
	if started != 100 {
		t.Errorf("started at %v", started)
	}
}
