package rtc

import (
	"github.com/domino5g/domino/internal/gcc"
	"github.com/domino5g/domino/internal/jitterbuffer"
	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// MTU is the media packet payload ceiling (bytes on the wire).
const MTU = 1200

// ClientConfig parameterizes one call participant.
type ClientConfig struct {
	// Name labels the client in traces.
	Name string
	// Local marks the cellular-side client (the paper's "local" /
	// experiment UE); the wired peer is remote.
	Local bool
	// StartRate seeds the congestion controller and encoder.
	StartRate float64
	// GCC is the congestion controller configuration.
	GCC gcc.Config
	// Video is the encoder profile.
	Video VideoSourceConfig
	// Audio is the audio source profile.
	Audio AudioSourceConfig
	// FeedbackInterval is the RTCP transport-feedback period.
	FeedbackInterval sim.Time
	// StatsInterval is the stats sampling period (the paper's
	// instrumented client samples every 50 ms).
	StatsInterval sim.Time
}

// DefaultClientConfig returns the standard profile.
func DefaultClientConfig(name string, local bool) ClientConfig {
	start := 1_000_000.0
	return ClientConfig{
		Name:             name,
		Local:            local,
		StartRate:        start,
		GCC:              gcc.DefaultConfig(start),
		Video:            DefaultVideoSourceConfig(),
		Audio:            DefaultAudioSourceConfig(),
		FeedbackInterval: 100 * sim.Millisecond,
		StatsInterval:    50 * sim.Millisecond,
	}
}

// StatsObserver consumes the 50 ms stats stream.
type StatsObserver interface {
	OnStats(trace.WebRTCStatsRecord)
}

// PacketObserver sees every media/RTCP packet delivered to a client,
// with both timestamps populated — the pcap capture points.
type PacketObserver interface {
	OnPacket(trace.PacketRecord)
}

// Client is one WebRTC endpoint: encoder + packetizer + GCC on the send
// side; frame assembly, jitter buffers, and feedback generation on the
// receive side.
type Client struct {
	cfg    ClientConfig
	engine *sim.Engine
	rng    *sim.RNG

	out netem.Link // outgoing media+RTCP link (toward the peer)

	ctrl  *gcc.Controller
	video *VideoSource
	vbuf  *jitterbuffer.VideoBuffer
	abuf  *jitterbuffer.AudioBuffer

	seq        uint64
	audioSeq   uint64
	sentFPSWin []sim.Time

	// Receive-side feedback accumulation.
	pendingResults []gcc.PacketResult
	seen           seqWindow

	// Direction of travel of this client's outgoing packets through
	// the 5G cell (UL for the local client, DL for the remote).
	outDir netem.Direction

	statsObs  StatsObserver
	packetObs PacketObserver

	tickers []*sim.Ticker

	// Counters.
	SentPackets uint64
	RecvPackets uint64
	SentBytes   uint64
}

// NewClient constructs a client; Attach must be called before Start.
func NewClient(engine *sim.Engine, rng *sim.RNG, cfg ClientConfig, statsObs StatsObserver, packetObs PacketObserver) *Client {
	if cfg.FeedbackInterval <= 0 {
		cfg.FeedbackInterval = 100 * sim.Millisecond
	}
	if cfg.StatsInterval <= 0 {
		cfg.StatsInterval = 50 * sim.Millisecond
	}
	c := &Client{
		cfg:       cfg,
		engine:    engine,
		rng:       rng.Fork(),
		ctrl:      gcc.NewController(cfg.GCC, engine.Now()),
		vbuf:      jitterbuffer.NewVideoBuffer(jitterbuffer.DefaultVideoConfig()),
		abuf:      jitterbuffer.NewAudioBuffer(jitterbuffer.DefaultAudioConfig()),
		statsObs:  statsObs,
		packetObs: packetObs,
	}
	c.video = NewVideoSource(cfg.Video, cfg.StartRate, c.rng)
	c.outDir = netem.Downlink
	if cfg.Local {
		c.outDir = netem.Uplink
	}
	return c
}

// Attach sets the outgoing link toward the peer.
func (c *Client) Attach(out netem.Link) { c.out = out }

// Start begins media generation and periodic tasks.
func (c *Client) Start() {
	frameInterval := sim.FromMilliseconds(1000 / c.cfg.Video.FPS)
	c.tickers = append(c.tickers,
		c.engine.NewTicker(c.rng.Jitter(frameInterval, 0.3), frameInterval, c.onVideoFrame),
		c.engine.NewTicker(c.rng.Jitter(c.cfg.Audio.PacketInterval, 0.3), c.cfg.Audio.PacketInterval, c.onAudioTick),
		c.engine.NewTicker(c.cfg.FeedbackInterval, c.cfg.FeedbackInterval, c.onFeedbackTick),
		c.engine.NewTicker(c.cfg.StatsInterval, c.cfg.StatsInterval, c.onStatsTick),
	)
}

// Stop cancels periodic activity.
func (c *Client) Stop() {
	for _, t := range c.tickers {
		t.Stop()
	}
}

// pacerSpacing is the inter-packet gap the send-side pacer applies
// within one frame burst. Pacing keeps intra-frame delay spread from
// polluting GCC's inter-group delay measurements, as libwebrtc's pacer
// does; the residual burstiness still shows up as the paper's Fig. 14
// multi-TB frames.
const pacerSpacing = 800 * sim.Microsecond

// onVideoFrame encodes one frame and sends it as a paced packet burst.
func (c *Client) onVideoFrame(now sim.Time) {
	c.video.SetRate(c.ctrl.PushbackRate())
	f := c.video.NextFrame(now)
	remaining := f.Bytes
	i := 0
	for remaining > 0 {
		size := remaining
		if size > MTU {
			size = MTU
		}
		remaining -= size
		c.seq++
		p := &netem.Packet{
			Seq: c.seq, Kind: netem.KindVideo, Size: size,
			FrameID: f.ID, LastOfFrame: remaining <= 0, KeyFrame: f.Key,
		}
		if i == 0 {
			p.SentAt = now
			c.sendPacket(p)
		} else {
			c.engine.Schedule(now+sim.Time(i)*pacerSpacing, func() {
				p.SentAt = c.engine.Now()
				c.sendPacket(p)
			})
		}
		i++
	}
	c.sentFPSWin = append(c.sentFPSWin, now)
	if len(c.sentFPSWin) > 90 {
		c.sentFPSWin = c.sentFPSWin[len(c.sentFPSWin)-90:]
	}
}

// onAudioTick sends one audio packet.
func (c *Client) onAudioTick(now sim.Time) {
	c.seq++
	c.audioSeq++
	p := &netem.Packet{
		Seq: c.seq, Kind: netem.KindAudio, Size: c.cfg.Audio.PacketBytes,
		SentAt: now,
	}
	c.sendPacket(p)
}

func (c *Client) sendPacket(p *netem.Packet) {
	if c.out == nil {
		return
	}
	c.ctrl.OnPacketSent(p.Seq, p.Size)
	c.SentPackets++
	c.SentBytes += uint64(p.Size)
	c.out.Send(p)
}

// Receive is the peer-facing delivery sink: media packets feed the
// jitter buffers and the feedback accumulator; RTCP packets feed GCC.
func (c *Client) Receive(p *netem.Packet) {
	now := c.engine.Now()
	c.RecvPackets++
	if c.packetObs != nil {
		// The record's direction is the packet's travel direction
		// through the cell: the local client receives DL traffic.
		dir := netem.Downlink
		if !c.cfg.Local {
			dir = netem.Uplink
		}
		c.packetObs.OnPacket(trace.PacketRecord{
			Seq: p.Seq, Kind: p.Kind, Dir: dir, Size: p.Size,
			SentAt: p.SentAt, Arrived: now,
		})
	}

	switch p.Kind {
	case netem.KindRTCP:
		if results, ok := p.Payload.([]gcc.PacketResult); ok {
			c.ctrl.OnFeedback(now, results)
		}
		return
	case netem.KindVideo:
		if p.LastOfFrame {
			// RLC in-order delivery + FIFO wired paths mean the frame
			// is complete when its last packet arrives.
			c.vbuf.OnFrame(p.FrameID, p.SentAt, now)
		}
	case netem.KindAudio:
		c.abuf.OnPacket(p.SentAt, now)
	}

	// Accumulate transport feedback for the peer's GCC.
	if c.seen.mark(p.Seq) {
		c.pendingResults = append(c.pendingResults, gcc.PacketResult{
			Seq: p.Seq, Size: p.Size, SentAt: p.SentAt, RecvAt: now,
		})
	}
}

// seqWindowSize is the span, in sequence numbers, of the receive-side
// dedup window. RLC drops duplicate SDUs and the wired legs are FIFO,
// so no duplicate reaches Receive in a full paper batch; the window is
// a guard. A client receives at most ~460 packets/s in the paper cells
// (T-Mobile 100 MHz TDD), so 4096 sequence numbers span about 9 s of
// call.
const seqWindowSize = 4096

// seqWindow is a sliding bitset over the last seqWindowSize sequence
// numbers: O(1) per packet and allocation-free. A sequence older than
// the window counts as unseen. The zero value is an empty window.
type seqWindow struct {
	bits [seqWindowSize / 64]uint64
	high uint64 // highest sequence marked; the window is (high-seqWindowSize, high]
}

// mark records seq and reports whether it was not already in the window.
func (w *seqWindow) mark(seq uint64) bool {
	if seq > w.high {
		if seq-w.high >= seqWindowSize {
			clear(w.bits[:])
		} else {
			for s := w.high + 1; s <= seq; s++ {
				w.bits[s/64%uint64(len(w.bits))] &^= 1 << (s % 64)
			}
		}
		w.high = seq
	} else if w.high-seq >= seqWindowSize {
		return true
	}
	word, bit := &w.bits[seq/64%uint64(len(w.bits))], uint64(1)<<(seq%64)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// onFeedbackTick ships accumulated transport feedback to the peer.
func (c *Client) onFeedbackTick(now sim.Time) {
	if c.out == nil || len(c.pendingResults) == 0 {
		return
	}
	results := c.pendingResults
	c.pendingResults = nil
	c.seq++
	p := &netem.Packet{
		Seq: c.seq, Kind: netem.KindRTCP,
		Size:    80 + 8*len(results),
		SentAt:  now,
		Payload: results,
	}
	// RTCP is not congestion controlled; send directly.
	c.SentPackets++
	c.out.Send(p)
}

// onStatsTick emits one instrumented-client stats record.
func (c *Client) onStatsTick(now sim.Time) {
	if c.statsObs == nil {
		return
	}
	vs := c.vbuf.Stats(now)
	as := c.abuf.Stats()
	snap := c.ctrl.Snapshot(now)
	c.ctrl.Tick(now)

	outFPS := 0
	for i := len(c.sentFPSWin) - 1; i >= 0; i-- {
		if now-c.sentFPSWin[i] > sim.Second {
			break
		}
		outFPS++
	}
	c.statsObs.OnStats(trace.WebRTCStatsRecord{
		At:    now,
		Local: c.cfg.Local,

		InboundFPS:       vs.FPS,
		OutboundFPS:      float64(outFPS),
		OutboundHeight:   int(c.video.Resolution()),
		InboundHeight:    0, // filled by Session from the peer
		VideoJBDelayMs:   vs.CurrentDelayMs,
		AudioJBDelayMs:   as.CurrentDelayMs,
		MinJBDelayMs:     vs.TargetDelayMs,
		FrozenNow:        vs.FrozenNow,
		FreezeTotalMs:    vs.FreezeTotalMs,
		ConcealedSamples: as.ConcealedSamples,
		TotalSamples:     as.TotalSamples,

		TargetBitrateBps:   snap.TargetRateBps,
		PushbackRateBps:    snap.PushbackRateBps,
		OutstandingBytes:   snap.OutstandingBytes,
		CongestionWindow:   snap.CongestionWindow,
		GCCNetState:        snap.State,
		TrendlineSlope:     snap.TrendSlope,
		TrendlineThreshold: snap.TrendThreshold,
		AckedBitrateBps:    snap.AckedBitrateBps,
	})
}

// VideoBufferStats exposes the receive buffer state.
func (c *Client) VideoBufferStats(now sim.Time) jitterbuffer.VideoStats { return c.vbuf.Stats(now) }

// AudioBufferStats exposes the audio buffer state.
func (c *Client) AudioBufferStats() jitterbuffer.AudioStats { return c.abuf.Stats() }

// Controller exposes the congestion controller (read-mostly).
func (c *Client) Controller() *gcc.Controller { return c.ctrl }

// Video exposes the video source.
func (c *Client) Video() *VideoSource { return c.video }
