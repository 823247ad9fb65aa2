package rtc

import (
	"fmt"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// SessionConfig describes one two-party call (Fig. 7): the local client
// behind a 5G cell, the remote client behind a wired path.
type SessionConfig struct {
	Cell ran.CellConfig
	// Wired is the path between the cell's core side and the remote
	// client (GCP leg for commercial cells, on-prem hop for private).
	Wired  netem.PathConfig
	Local  ClientConfig
	Remote ClientConfig
	Seed   uint64
	// ScenarioName labels the session's trace (and every report derived
	// from it) with the generating scenario. Empty for plain preset
	// sessions, which keeps their serialized traces unchanged.
	ScenarioName string
}

// DefaultSessionConfig returns a session on the given cell preset with
// the paper's wired legs.
func DefaultSessionConfig(cell ran.CellConfig, seed uint64) SessionConfig {
	wired := netem.WiredGCPPath()
	if cell.HasGNBLog || cell.Name == "Mosolabs 20MHz TDD" {
		// Private cells used a local server in the core's subnet.
		wired = netem.PrivateCorePath()
	}
	return SessionConfig{
		Cell:   cell,
		Wired:  wired,
		Local:  DefaultClientConfig("local", true),
		Remote: DefaultClientConfig("remote", false),
		Seed:   seed,
	}
}

// Session is a running two-party call over a simulated 5G cell.
type Session struct {
	Engine    *sim.Engine
	Cell      *ran.Cell
	Local     *Client
	Remote    *Client
	Collector *trace.Collector

	ulWired *netem.Path
	dlWired *netem.Path
}

// sessionStats intercepts client stats to add cross-client fields
// before persisting them.
type sessionStats struct {
	s *Session
}

// OnStats implements StatsObserver.
func (ss sessionStats) OnStats(r trace.WebRTCStatsRecord) {
	// Inbound resolution is the peer's current outbound rung.
	if r.Local {
		r.InboundHeight = int(ss.s.Remote.Video().Resolution())
	} else {
		r.InboundHeight = int(ss.s.Local.Video().Resolution())
	}
	ss.s.Collector.OnStats(r)
}

// NewSession builds and wires a session; call Run to execute it.
func NewSession(cfg SessionConfig) (*Session, error) {
	engine := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	s := &Session{Engine: engine}
	s.Collector = trace.NewCollector(cfg.Cell.Name, cfg.Cell.HasGNBLog)
	s.Collector.Set.Scenario = cfg.ScenarioName

	ss := sessionStats{s}
	s.Local = NewClient(engine, rng, cfg.Local, ss, s.Collector)
	s.Remote = NewClient(engine, rng, cfg.Remote, ss, s.Collector)

	// Uplink: local → cell UL → wired → remote.
	s.ulWired = netem.NewPath(engine, rng, cfg.Wired, s.Remote.Receive)
	cell, err := ran.NewCell(engine, rng, cfg.Cell,
		func(p *netem.Packet) { s.ulWired.Send(p) },
		s.Local.Receive,
		s.Collector,
	)
	if err != nil {
		return nil, fmt.Errorf("rtc: building session cell: %w", err)
	}
	s.Cell = cell
	s.Local.Attach(cell.ULLink())

	// Downlink: remote → wired → cell DL → local.
	s.dlWired = netem.NewPath(engine, rng, cfg.Wired, func(p *netem.Packet) { cell.DLLink().Send(p) })
	s.Remote.Attach(s.dlWired)

	return s, nil
}

// ULWired returns the uplink-side wired leg (for delay scripting).
func (s *Session) ULWired() *netem.Path { return s.ulWired }

// DLWired returns the downlink-side wired leg (for delay scripting).
func (s *Session) DLWired() *netem.Path { return s.dlWired }

// Run executes the call for the given duration and returns the merged
// cross-layer trace.
func (s *Session) Run(duration sim.Time) *trace.Set {
	// Pre-size the trace series from the cell geometry so collection
	// neither regrows nor zeroes memory it never fills (see
	// dciReservation), plus a gNB buffer-log pair (UL+DL) every 16
	// slots — i.e. slots/8 records — and retx log lines, 50 ms stats
	// per client, and a conservative packet-rate guess.
	slots := int(duration / s.Cell.Config().Numerology.SlotDuration())
	secs := int(duration / sim.Second)
	s.Collector.Reserve(dciReservation(s.Cell.Config(), slots), slots/8, 1000*secs, 2*secs*20, 4*secs)
	s.Local.Start()
	s.Remote.Start()
	s.Engine.RunUntil(duration)
	s.Local.Stop()
	s.Remote.Stop()
	s.Cell.Stop()
	set := &s.Collector.Set
	set.Duration = duration
	set.Sort()
	return set
}

// dciReservation sizes the DCI series for a session of the given slot
// count. A TDD slot carries one direction, and the paper cells emit
// about one DCI record per slot or fewer: over a 30 s call's 60k slots
// T-Mobile 100 MHz TDD logged 60.5k, the sparser Amarisoft and
// Mosolabs cells 13–20k. An FDD slot carries both directions: T-Mobile
// 15 MHz FDD logged 60.6k over 30k slots, just above two per slot
// because HARQ retransmissions add records. The 1/16 slack absorbs that
// overshoot, so in the paper sessions the series never regrows.
func dciReservation(cell ran.CellConfig, slots int) int {
	perSlot := 1
	if cell.Frame.IsFDD() {
		perSlot = 2
	}
	n := perSlot * slots
	return n + n/16
}

// WiredSessionConfig describes the wired-vs-wired baseline call used by
// the paper's motivation experiments (Fig. 2–4).
type WiredSessionConfig struct {
	Path   netem.PathConfig
	Local  ClientConfig
	Remote ClientConfig
	Seed   uint64
}

// WiredSession is a two-party call across a wired path only.
type WiredSession struct {
	Engine    *sim.Engine
	Local     *Client
	Remote    *Client
	Collector *trace.Collector
}

// NewWiredSession builds a wired baseline session.
func NewWiredSession(cfg WiredSessionConfig) *WiredSession {
	engine := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	s := &WiredSession{Engine: engine}
	s.Collector = trace.NewCollector("wired", false)

	s.Local = NewClient(engine, rng, cfg.Local, s.Collector, s.Collector)
	s.Remote = NewClient(engine, rng, cfg.Remote, s.Collector, s.Collector)

	up := netem.NewPath(engine, rng, cfg.Path, s.Remote.Receive)
	down := netem.NewPath(engine, rng, cfg.Path, s.Local.Receive)
	s.Local.Attach(up)
	s.Remote.Attach(down)
	return s
}

// Run executes the wired call and returns its trace.
func (s *WiredSession) Run(duration sim.Time) *trace.Set {
	s.Local.Start()
	s.Remote.Start()
	s.Engine.RunUntil(duration)
	s.Local.Stop()
	s.Remote.Stop()
	set := &s.Collector.Set
	set.Duration = duration
	set.Sort()
	return set
}
