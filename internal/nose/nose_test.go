package nose

import (
	"fmt"
	"strings"
	"testing"

	"gamma/internal/config"
	"gamma/internal/sim"
)

func testNet(t *testing.T, nodes int) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New()
	p := config.Default()
	n := NewNetwork(s, p.Net, p.CPU)
	for i := 0; i < nodes; i++ {
		n.AddNode(false, p.Disk)
	}
	return s, n
}

func TestLocalSendShortCircuits(t *testing.T) {
	s, n := testNet(t, 1)
	nd := n.Nodes()[0]
	port := nd.NewPort("p")
	var got any
	s.Spawn("recv", func(p *sim.Proc) {
		m := port.Recv(p)
		got = m.Payload
	})
	s.Spawn("send", func(p *sim.Proc) {
		c := nd.Dial(port)
		if !c.Local() {
			t.Error("expected local connection")
		}
		c.Send(p, Data, "hello", 2048)
	})
	s.Run()
	if got != "hello" {
		t.Errorf("payload = %v", got)
	}
	st := n.Stats()
	if st.LocalMsgs != 1 || st.DataPackets != 0 {
		t.Errorf("stats = %+v, want short-circuit only", st)
	}
}

func TestRemoteSendCrossesRingAndNICs(t *testing.T) {
	s, n := testNet(t, 2)
	a, b := n.Nodes()[0], n.Nodes()[1]
	port := b.NewPort("p")
	var delivered sim.Time
	s.Spawn("recv", func(p *sim.Proc) {
		port.Recv(p)
		delivered = p.Now()
	})
	s.Spawn("send", func(p *sim.Proc) {
		a.Dial(port).Send(p, Data, nil, 2048)
	})
	s.Run()
	// Sender CPU (protocol) + sender NIC (2 KB Unibus = 4096us) + ring +
	// receiver NIC must all have elapsed.
	cfg := n.Config()
	minT := cfg.NICTime(2048)*2 + cfg.RingTime(2048)
	if delivered < minT {
		t.Errorf("delivered at %v, want >= %v", delivered, minT)
	}
	if st := n.Stats(); st.DataPackets != 1 {
		t.Errorf("stats = %+v, want 1 data packet", st)
	}
}

func TestWindowBackpressureStallsSender(t *testing.T) {
	s, n := testNet(t, 2)
	a, b := n.Nodes()[0], n.Nodes()[1]
	port := b.NewPort("p")
	window := n.Config().Window

	const total = 20
	var lastSendDone sim.Time
	consumeEvery := sim.Dur(100 * sim.Millisecond)

	s.Spawn("slow-recv", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			port.Recv(p)
			p.Sleep(consumeEvery)
		}
	})
	s.Spawn("fast-send", func(p *sim.Proc) {
		c := a.Dial(port)
		for i := 0; i < total; i++ {
			c.Send(p, Data, i, 2048)
		}
		lastSendDone = p.Now()
	})
	s.Run()
	// With a window of `window`, the sender can run at most `window`
	// packets ahead of the consumer, so the last send cannot start before
	// the consumer has consumed total-window-1 packets (the consumer
	// receives packet k at roughly k*consumeEvery).
	minT := sim.Dur(total-window-1) * consumeEvery
	if lastSendDone < minT {
		t.Errorf("sender finished at %v; window failed to throttle (want >= %v)", lastSendDone, minT)
	}
}

func TestManySendersFIFOIntoOnePort(t *testing.T) {
	s, n := testNet(t, 4)
	dst := n.Nodes()[3]
	port := dst.NewPort("sink")
	var got []int
	s.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			m := port.Recv(p)
			got = append(got, m.Payload.(int))
		}
	})
	for i := 0; i < 3; i++ {
		src := n.Nodes()[i]
		val := i
		s.Spawn("send", func(p *sim.Proc) {
			c := src.Dial(port)
			c.Send(p, Data, val, 2048)
			c.Send(p, Data, val+10, 2048)
		})
	}
	s.Run()
	if len(got) != 6 {
		t.Fatalf("received %d messages, want 6", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	for _, want := range []int{0, 1, 2, 10, 11, 12} {
		if !seen[want] {
			t.Errorf("missing message %d", want)
		}
	}
}

func TestCtlMsgCostsSenderSevenMS(t *testing.T) {
	s, n := testNet(t, 2)
	a, b := n.Nodes()[0], n.Nodes()[1]
	port := b.NewPort("ctl")
	var sendDone sim.Time
	s.Spawn("recv", func(p *sim.Proc) { port.Recv(p) })
	s.Spawn("sched", func(p *sim.Proc) {
		SendCtl(p, a, port, "initiate")
		sendDone = p.Now()
	})
	s.Run()
	if sendDone != n.Config().CtlMsg {
		t.Errorf("control send took %v, want %v", sendDone, n.Config().CtlMsg)
	}
	if st := n.Stats(); st.CtlMsgs != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCtlMsgSerializesAtScheduler(t *testing.T) {
	s, n := testNet(t, 9)
	sched := n.Nodes()[0]
	var done sim.Time
	ports := make([]*Port, 8)
	for i := 0; i < 8; i++ {
		ports[i] = n.Nodes()[i+1].NewPort("op")
		pt := ports[i]
		s.Spawn("op", func(p *sim.Proc) { pt.Recv(p) })
	}
	s.Spawn("sched", func(p *sim.Proc) {
		for _, pt := range ports {
			SendCtl(p, sched, pt, "go")
		}
		done = p.Now()
	})
	s.Run()
	if want := 8 * n.Config().CtlMsg; done != want {
		t.Errorf("scheduling 8 nodes took %v, want %v", done, want)
	}
}

func TestTryRecv(t *testing.T) {
	s, n := testNet(t, 1)
	nd := n.Nodes()[0]
	port := nd.NewPort("p")
	s.Spawn("p", func(p *sim.Proc) {
		if _, ok := port.TryRecv(p); ok {
			t.Error("TryRecv on empty port returned a message")
		}
		nd.Dial(port).Send(p, Data, 7, 64)
		m, ok := port.TryRecv(p)
		if !ok || m.Payload.(int) != 7 {
			t.Errorf("TryRecv = %v %v", m, ok)
		}
	})
	s.Run()
}

func TestNodeSpoolAssignment(t *testing.T) {
	s := sim.New()
	p := config.Default()
	n := NewNetwork(s, p.Net, p.CPU)
	withDisk := n.AddNode(true, p.Disk)
	diskless := n.AddNode(false, p.Disk)
	if withDisk.Drive == nil || withDisk.SpoolNode != withDisk {
		t.Error("disk node should spool to itself")
	}
	if diskless.Drive != nil || diskless.SpoolNode != nil {
		t.Error("diskless node should start with no drive and no spool target")
	}
}

// TestPortQueueOrderAndReuse drives a port's queue through a backlog that
// never drains and then through drain/refill cycles: messages come out in
// arrival order, a consumed slot no longer references its message, and the
// backing array stays as small as the backlog instead of growing with the
// number of messages that ever passed through.
func TestPortQueueOrderAndReuse(t *testing.T) {
	s, n := testNet(t, 1)
	nd := n.Nodes()[0]
	port := nd.NewPort("p")
	const total, backlog = 10000, 5
	s.Spawn("p", func(p *sim.Proc) {
		next := 0
		recv := func() {
			m := port.Recv(p)
			if m.Payload.(int) != next {
				t.Fatalf("received %v, want %d", m.Payload, next)
			}
			next++
		}
		for i := 0; i < total; i++ {
			port.deliver(Message{Kind: Data, Payload: i})
			if i >= backlog {
				recv()
			}
		}
		if got := port.Pending(); got != backlog {
			t.Errorf("Pending = %d, want %d", got, backlog)
		}
		if c := cap(port.queue); c > 8*backlog {
			t.Errorf("queue capacity %d after %d messages with a backlog of %d", c, total, backlog)
		}
		for _, m := range port.queue[:port.head] {
			if m.Payload != nil {
				t.Errorf("consumed slot still holds payload %v", m.Payload)
			}
		}
		for port.Pending() > 0 {
			recv()
		}
		if port.head != 0 || len(port.queue) != 0 {
			t.Errorf("drained queue not recycled: head %d, len %d", port.head, len(port.queue))
		}
		// Drain/refill: the array is reused from slot 0.
		c0 := cap(port.queue)
		for i := 0; i < 1000; i++ {
			port.deliver(Message{Kind: Data, Payload: next})
			recv()
		}
		if cap(port.queue) != c0 {
			t.Errorf("drain/refill grew the queue: cap %d -> %d", c0, cap(port.queue))
		}
	})
	s.Run()
}

// TestPortCloseReleasesOnlyPending: Close returns the credits of the
// messages still queued, not of those already received.
func TestPortCloseReleasesOnlyPending(t *testing.T) {
	s, n := testNet(t, 1)
	port := n.Nodes()[0].NewPort("p")
	released := make([]int, 3)
	s.Spawn("p", func(p *sim.Proc) {
		for i := range released {
			port.deliver(Message{Kind: Data, Payload: i, release: func() { released[i]++ }})
		}
		port.Recv(p)
		port.Close()
	})
	s.Run()
	for i, n := range released {
		if n != 1 {
			t.Errorf("message %d released %d times, want 1", i, n)
		}
	}
	if port.Pending() != 0 {
		t.Errorf("Pending after Close = %d", port.Pending())
	}
}

// TestRemoteSendSteadyStateAllocs: an in-flight record's callbacks are bound
// once, so a remote Send and the Recv that consumes it — arrival, landing,
// release and ACK included — allocate nothing once the sending node owns a
// window's worth of records. The payload is boxed by the caller.
func TestRemoteSendSteadyStateAllocs(t *testing.T) {
	s, n := testNet(t, 2)
	a, b := n.Nodes()[0], n.Nodes()[1]
	port := b.NewPort("p")
	var payload any = &struct{}{}
	received := 0
	s.Spawn("recv", func(p *sim.Proc) {
		for port.Recv(p).Kind == Data {
			received++
		}
	})
	var allocs float64
	s.Spawn("send", func(p *sim.Proc) {
		c := a.Dial(port)
		for i := 0; i < 64; i++ { // fill the window, the port queue and the calendar
			c.Send(p, Data, payload, 2048)
		}
		allocs = testing.AllocsPerRun(500, func() { c.Send(p, Data, payload, 2048) })
		c.Send(p, EndOfStream, nil, 64)
	})
	s.Run()
	if allocs != 0 {
		t.Errorf("steady-state remote Send+Recv allocates %v objects per message, want 0", allocs)
	}
	if received != 64+501 {
		t.Errorf("received %d messages, want %d", received, 64+501)
	}
}

// TestRemoteSendOverPacketPanics: a data message is one wire packet, so a
// sender handing Send more than PacketBytes is a bug and panics by name.
func TestRemoteSendOverPacketPanics(t *testing.T) {
	s, n := testNet(t, 2)
	port := n.Nodes()[1].NewPort("p")
	s.Spawn("send", func(p *sim.Proc) {
		n.Nodes()[0].Dial(port).Send(p, Data, nil, n.Config().PacketBytes+1)
	})
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "2049-byte message exceeds the 2048-byte packet") {
			t.Errorf("Run recovered %v, want the over-packet panic", r)
		}
	}()
	s.Run()
}
