package nose

import (
	"testing"

	"gamma/internal/sim"
)

func TestTransferBulkChargesBothNICs(t *testing.T) {
	s, n := testNet(t, 2)
	a, b := n.Nodes()[0], n.Nodes()[1]
	var elapsed sim.Dur
	s.Spawn("mover", func(p *sim.Proc) {
		start := p.Now()
		n.TransferBulk(p, a, b, 4096)
		elapsed = p.Now() - start
	})
	s.Run()
	cfg := n.cfg
	want := 2*cfg.NICTime(4096) + cfg.RingTime(4096)
	if elapsed != want {
		t.Errorf("bulk transfer took %v, want %v", elapsed, want)
	}
	if st := n.Stats(); st.RingBytes != 4096 {
		t.Errorf("ring bytes = %d", st.RingBytes)
	}
}

func TestTransferBulkSameNodeIsFree(t *testing.T) {
	s, n := testNet(t, 1)
	a := n.Nodes()[0]
	var elapsed sim.Dur
	s.Spawn("mover", func(p *sim.Proc) {
		start := p.Now()
		n.TransferBulk(p, a, a, 1<<20)
		elapsed = p.Now() - start
	})
	s.Run()
	if elapsed != 0 {
		t.Errorf("same-node transfer took %v", elapsed)
	}
}

func TestBulkWithoutStages(t *testing.T) {
	s, n := testNet(t, 1)
	a := n.Nodes()[0]
	var self Bulk
	self.Start(a, a, 4096)
	for name, b := range map[string]*Bulk{"zero": {}, "self": &self} {
		if at, more := b.Step(); more || at != 0 {
			t.Errorf("%s Bulk: Step = %v, %v; want no stage", name, at, more)
		}
	}
	if s.Executed() != 0 || n.Stats().RingBytes != 0 {
		t.Errorf("a Bulk without stages executed %d events and moved %d ring bytes", s.Executed(), n.Stats().RingBytes)
	}
}

func TestPerConnectionFIFODelivery(t *testing.T) {
	// Messages sent on one connection must be received in send order —
	// the property that makes end-of-stream a reliable stream terminator.
	s, n := testNet(t, 2)
	a, b := n.Nodes()[0], n.Nodes()[1]
	port := b.NewPort("p")
	const total = 50
	var got []int
	s.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			m := port.Recv(p)
			got = append(got, m.Payload.(int))
		}
	})
	s.Spawn("send", func(p *sim.Proc) {
		c := a.Dial(port)
		for i := 0; i < total; i++ {
			c.Send(p, Data, i, 512)
		}
	})
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d arrived at position %d", v, i)
		}
	}
}

func TestSharedNICSerializesTwoSenders(t *testing.T) {
	// Two processes on one node share its Unibus path: their sends must
	// serialize on the NIC.
	s, n := testNet(t, 2)
	a, b := n.Nodes()[0], n.Nodes()[1]
	port := b.NewPort("p")
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("send", func(p *sim.Proc) {
			c := a.Dial(port)
			c.Send(p, Data, i, 2048)
			done[i] = p.Now()
		})
	}
	s.Spawn("recv", func(p *sim.Proc) {
		port.Recv(p)
		port.Recv(p)
	})
	s.Run()
	nicTime := n.cfg.NICTime(2048)
	later := done[0]
	if done[1] > later {
		later = done[1]
	}
	if later < 2*nicTime {
		t.Errorf("two 2KB sends finished by %v; NIC (%v each) did not serialize", later, nicTime)
	}
}
