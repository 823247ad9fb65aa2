package trace

import (
	"math"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// This file is the hand-rolled JSONL codec for the trace hot path.
//
// Encoder: append-based writers that produce byte-identical output to
// the reflection path WriteJSONL used before (json.Marshal of each
// record wrapped in the {"type","data"} envelope, HTML-escaped), so
// golden traces are unchanged while encoding drops from ~3 allocations
// per record to zero and decoding from ~13 to one (the record struct).
//
// Decoder: a field-scanning parser for the exact shape the encoder
// emits (compact envelope, known field names, JSON-conformant scalars).
// It accepts a strict subset of what encoding/json accepts; on any
// deviation — unknown or case-folded field names, escaped strings,
// nulls, exotic numbers — the caller falls back to the stdlib path,
// which therefore stays both the semantic oracle (differential tests in
// codec_test.go pin fast == stdlib on everything the fast path accepts)
// and the handler of foreign telemetry.

const hexDigits = "0123456789abcdef"

// jsonSafe marks ASCII bytes that encoding/json (with HTML escaping,
// the json.Marshal default) copies through unescaped.
var jsonSafe = [utf8.RuneSelf]bool{}

func init() {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		jsonSafe[b] = true
	}
	for _, b := range []byte{'"', '\\', '<', '>', '&'} {
		jsonSafe[b] = false
	}
}

// appendJSONString appends s as a JSON string literal exactly as
// json.Marshal renders it (HTML escaping on, invalid UTF-8 replaced,
// U+2028/U+2029 escaped).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				// Control bytes other than \b, \f, \n, \r, \t, and the
				// HTML-sensitive <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f exactly as json.Marshal renders float64
// values. It reports false for NaN and infinities, which JSON cannot
// represent (json.Marshal errors on them).
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim the exponent's leading zero ("e-09" → "e-9"), as
		// encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// encBuf accumulates one encoded line; float errors are latched so the
// append chains stay branch-light.
type encBuf struct {
	b      []byte
	badNum bool
}

func (e *encBuf) raw(s string) { e.b = append(e.b, s...) }
func (e *encBuf) i64(v int64)  { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *encBuf) u64(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }
func (e *encBuf) str(s string) { e.b = appendJSONString(e.b, s) }
func (e *encBuf) boolv(v bool) {
	if v {
		e.b = append(e.b, "true"...)
	} else {
		e.b = append(e.b, "false"...)
	}
}
func (e *encBuf) f64(v float64) {
	var ok bool
	e.b, ok = appendJSONFloat(e.b, v)
	if !ok {
		e.badNum = true
	}
}

// errUnsupportedFloat mirrors json.Marshal's refusal of NaN/Inf.
type errUnsupportedFloat struct{}

func (errUnsupportedFloat) Error() string {
	return "trace: unsupported float value (NaN or Inf) in record"
}

// appendHeaderLine appends the encoded header envelope (no newline).
func appendHeaderLine(dst []byte, h *Header) []byte {
	e := encBuf{b: dst}
	e.raw(`{"type":"header","data":{"cell_name":`)
	e.str(h.CellName)
	if h.Scenario != "" { // omitempty, matching jsonHeader
		e.raw(`,"scenario":`)
		e.str(h.Scenario)
	}
	e.raw(`,"duration_us":`)
	e.i64(int64(h.Duration))
	e.raw(`,"has_gnb_log":`)
	e.boolv(h.HasGNBLog)
	e.raw(`}}`)
	return e.b
}

// appendDCILine appends the encoded DCI record envelope (no newline).
func appendDCILine(dst []byte, r *DCIRecord) []byte {
	e := encBuf{b: dst}
	e.raw(`{"type":"dci","data":{"At":`)
	e.i64(int64(r.At))
	e.raw(`,"Dir":`)
	e.i64(int64(r.Dir))
	e.raw(`,"RNTI":`)
	e.u64(uint64(r.RNTI))
	e.raw(`,"OwnPRB":`)
	e.i64(int64(r.OwnPRB))
	e.raw(`,"OtherPRB":`)
	e.i64(int64(r.OtherPRB))
	e.raw(`,"MCS":`)
	e.i64(int64(r.MCS))
	e.raw(`,"TBSBits":`)
	e.i64(int64(r.TBSBits))
	e.raw(`,"UsedBits":`)
	e.i64(int64(r.UsedBits))
	e.raw(`,"HARQRetx":`)
	e.boolv(r.HARQRetx)
	e.raw(`,"RLCRetx":`)
	e.boolv(r.RLCRetx)
	e.raw(`,"Proactive":`)
	e.boolv(r.Proactive)
	e.raw(`,"Unused":`)
	e.boolv(r.Unused)
	e.raw(`}}`)
	return e.b
}

// appendGNBLine appends the encoded gNB-log record envelope.
func appendGNBLine(dst []byte, r *GNBLogRecord) []byte {
	e := encBuf{b: dst}
	e.raw(`{"type":"gnb","data":{"At":`)
	e.i64(int64(r.At))
	e.raw(`,"Kind":`)
	e.i64(int64(r.Kind))
	e.raw(`,"Dir":`)
	e.i64(int64(r.Dir))
	e.raw(`,"BufferBytes":`)
	e.i64(int64(r.BufferBytes))
	e.raw(`,"RNTI":`)
	e.u64(uint64(r.RNTI))
	e.raw(`,"Note":`)
	e.str(r.Note)
	e.raw(`}}`)
	return e.b
}

// appendPacketLine appends the encoded packet record envelope.
func appendPacketLine(dst []byte, r *PacketRecord) []byte {
	e := encBuf{b: dst}
	e.raw(`{"type":"pkt","data":{"Seq":`)
	e.u64(r.Seq)
	e.raw(`,"Kind":`)
	e.i64(int64(r.Kind))
	e.raw(`,"Dir":`)
	e.i64(int64(r.Dir))
	e.raw(`,"Size":`)
	e.i64(int64(r.Size))
	e.raw(`,"SentAt":`)
	e.i64(int64(r.SentAt))
	e.raw(`,"Arrived":`)
	e.i64(int64(r.Arrived))
	e.raw(`}}`)
	return e.b
}

// appendStatsLine appends the encoded WebRTC stats record envelope. The
// error mirrors json.Marshal's NaN/Inf rejection.
func appendStatsLine(dst []byte, r *WebRTCStatsRecord) ([]byte, error) {
	e := encBuf{b: dst}
	e.raw(`{"type":"stats","data":{"At":`)
	e.i64(int64(r.At))
	e.raw(`,"Local":`)
	e.boolv(r.Local)
	e.raw(`,"InboundFPS":`)
	e.f64(r.InboundFPS)
	e.raw(`,"OutboundFPS":`)
	e.f64(r.OutboundFPS)
	e.raw(`,"OutboundHeight":`)
	e.i64(int64(r.OutboundHeight))
	e.raw(`,"InboundHeight":`)
	e.i64(int64(r.InboundHeight))
	e.raw(`,"VideoJBDelayMs":`)
	e.f64(r.VideoJBDelayMs)
	e.raw(`,"AudioJBDelayMs":`)
	e.f64(r.AudioJBDelayMs)
	e.raw(`,"MinJBDelayMs":`)
	e.f64(r.MinJBDelayMs)
	e.raw(`,"FrozenNow":`)
	e.boolv(r.FrozenNow)
	e.raw(`,"FreezeTotalMs":`)
	e.f64(r.FreezeTotalMs)
	e.raw(`,"ConcealedSamples":`)
	e.u64(r.ConcealedSamples)
	e.raw(`,"TotalSamples":`)
	e.u64(r.TotalSamples)
	e.raw(`,"TargetBitrateBps":`)
	e.f64(r.TargetBitrateBps)
	e.raw(`,"PushbackRateBps":`)
	e.f64(r.PushbackRateBps)
	e.raw(`,"OutstandingBytes":`)
	e.i64(int64(r.OutstandingBytes))
	e.raw(`,"CongestionWindow":`)
	e.i64(int64(r.CongestionWindow))
	e.raw(`,"GCCNetState":`)
	e.i64(int64(r.GCCNetState))
	e.raw(`,"TrendlineSlope":`)
	e.f64(r.TrendlineSlope)
	e.raw(`,"TrendlineThreshold":`)
	e.f64(r.TrendlineThreshold)
	e.raw(`,"AckedBitrateBps":`)
	e.f64(r.AckedBitrateBps)
	e.raw(`}}`)
	if e.badNum {
		return dst, errUnsupportedFloat{}
	}
	return e.b, nil
}

// appendRRCLine appends the encoded RRC record envelope.
func appendRRCLine(dst []byte, r *RRCRecord) []byte {
	e := encBuf{b: dst}
	e.raw(`{"type":"rrc","data":{"At":`)
	e.i64(int64(r.At))
	e.raw(`,"Connected":`)
	e.boolv(r.Connected)
	e.raw(`,"RNTI":`)
	e.u64(uint64(r.RNTI))
	e.raw(`,"Cause":`)
	e.str(r.Cause)
	e.raw(`}}`)
	return e.b
}

// --- Decoder fast path ---

// lineParser scans one JSONL line. Any deviation from the fast-path
// subset clears ok; the caller then re-decodes the line through
// encoding/json, so bailing out is never an error by itself.
type lineParser struct {
	buf []byte
	pos int
	ok  bool
}

func (p *lineParser) skipWS() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *lineParser) expect(c byte) {
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return
	}
	p.ok = false
}

// key scans a JSON object key and returns its raw bytes. Keys with
// escapes are not fast-path material.
func (p *lineParser) key() []byte {
	if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
		p.ok = false
		return nil
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case c == '"':
			k := p.buf[start:p.pos]
			p.pos++
			return k
		case c == '\\' || c < 0x20:
			p.ok = false
			return nil
		default:
			p.pos++
		}
	}
	p.ok = false
	return nil
}

// stringValue scans a JSON string with no escapes and valid UTF-8;
// anything else bails to the stdlib path (which handles unescaping and
// replacement exactly once, in one place).
func (p *lineParser) stringValue() string {
	if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
		p.ok = false
		return ""
	}
	p.pos++
	start := p.pos
	ascii := true
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case c == '"':
			raw := p.buf[start:p.pos]
			p.pos++
			if !ascii && !utf8.Valid(raw) {
				// encoding/json replaces invalid UTF-8 with U+FFFD;
				// let it.
				p.ok = false
				return ""
			}
			return string(raw)
		case c == '\\' || c < 0x20:
			p.ok = false
			return ""
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			p.pos++
		}
	}
	p.ok = false
	return ""
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// tokString views a scanned token as a string without copying, for the
// strconv parse calls only — they do not retain their argument, and the
// backing line buffer outlives the call.
func tokString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// numberToken scans the contiguous number-shaped token at the cursor
// and validates it against the JSON number grammar (encoding/json
// rejects "01", "+1", "1.", etc. — so must we, or the fast path would
// accept inputs the oracle rejects).
func (p *lineParser) numberToken() []byte {
	start := p.pos
	for p.pos < len(p.buf) {
		switch c := p.buf[p.pos]; {
		case isDigit(c), c == '-', c == '+', c == '.', c == 'e', c == 'E':
			p.pos++
		default:
			goto done
		}
	}
done:
	tok := p.buf[start:p.pos]
	if !validJSONNumber(tok) {
		p.ok = false
		return nil
	}
	return tok
}

func validJSONNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i++
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	return i == len(b)
}

// i64 parses an integer value. Fractional or exponent forms bail out:
// encoding/json errors on them for integer fields, and the fallback
// produces that error.
func (p *lineParser) i64() int64 {
	tok := p.numberToken()
	if !p.ok {
		return 0
	}
	for _, c := range tok {
		if c == '.' || c == 'e' || c == 'E' {
			p.ok = false
			return 0
		}
	}
	v, err := strconv.ParseInt(tokString(tok), 10, 64)
	if err != nil {
		p.ok = false
		return 0
	}
	return v
}

func (p *lineParser) u64(bits int) uint64 {
	tok := p.numberToken()
	if !p.ok {
		return 0
	}
	for _, c := range tok {
		if c == '.' || c == 'e' || c == 'E' || c == '-' {
			p.ok = false
			return 0
		}
	}
	v, err := strconv.ParseUint(tokString(tok), 10, bits)
	if err != nil {
		p.ok = false
		return 0
	}
	return v
}

func (p *lineParser) f64() float64 {
	tok := p.numberToken()
	if !p.ok {
		return 0
	}
	v, err := strconv.ParseFloat(tokString(tok), 64)
	if err != nil {
		p.ok = false
		return 0
	}
	return v
}

func (p *lineParser) boolValue() bool {
	if len(p.buf)-p.pos >= 4 && string(p.buf[p.pos:p.pos+4]) == "true" {
		p.pos += 4
		return true
	}
	if len(p.buf)-p.pos >= 5 && string(p.buf[p.pos:p.pos+5]) == "false" {
		p.pos += 5
		return false
	}
	p.ok = false
	return false
}

// beginObject consumes the value's opening brace. It returns false for
// an empty object (already fully consumed) or a parse failure.
func (p *lineParser) beginObject() bool {
	p.skipWS()
	p.expect('{')
	p.skipWS()
	if p.ok && p.pos < len(p.buf) && p.buf[p.pos] == '}' {
		p.pos++
		return false
	}
	return p.ok
}

// fieldKey parses `"key":`, leaving the cursor at the value. The
// begin/key/end helpers keep the per-type decoders closure-free — a
// callback-driven scan would cost one closure allocation per record.
func (p *lineParser) fieldKey() []byte {
	k := p.key()
	if !p.ok {
		return nil
	}
	p.skipWS()
	p.expect(':')
	p.skipWS()
	return k
}

// endField consumes the separator after a value: false means another
// field follows, true means the object closed (or the line is not
// fast-path material, flagged in p.ok).
func (p *lineParser) endField() bool {
	p.skipWS()
	if p.pos >= len(p.buf) {
		p.ok = false
		return true
	}
	switch p.buf[p.pos] {
	case ',':
		p.pos++
		p.skipWS()
		return false
	case '}':
		p.pos++
		return true
	default:
		p.ok = false
		return true
	}
}

func decodeHeaderData(p *lineParser) *Header {
	h := &Header{}
	if !p.beginObject() {
		return h
	}
	for p.ok {
		switch string(p.fieldKey()) {
		case "cell_name":
			h.CellName = p.stringValue()
		case "scenario":
			h.Scenario = p.stringValue()
		case "duration_us":
			h.Duration = sim.Time(p.i64())
		case "has_gnb_log":
			h.HasGNBLog = p.boolValue()
		default:
			p.ok = false
		}
		if !p.ok || p.endField() {
			break
		}
	}
	return h
}

func decodeDCIData(p *lineParser) *DCIRecord {
	v := &DCIRecord{}
	if !p.beginObject() {
		return v
	}
	for p.ok {
		switch string(p.fieldKey()) {
		case "At":
			v.At = sim.Time(p.i64())
		case "Dir":
			v.Dir = netem.Direction(p.i64())
		case "RNTI":
			v.RNTI = uint32(p.u64(32))
		case "OwnPRB":
			v.OwnPRB = int(p.i64())
		case "OtherPRB":
			v.OtherPRB = int(p.i64())
		case "MCS":
			v.MCS = int(p.i64())
		case "TBSBits":
			v.TBSBits = int(p.i64())
		case "UsedBits":
			v.UsedBits = int(p.i64())
		case "HARQRetx":
			v.HARQRetx = p.boolValue()
		case "RLCRetx":
			v.RLCRetx = p.boolValue()
		case "Proactive":
			v.Proactive = p.boolValue()
		case "Unused":
			v.Unused = p.boolValue()
		default:
			p.ok = false
		}
		if !p.ok || p.endField() {
			break
		}
	}
	return v
}

func decodeGNBData(p *lineParser) *GNBLogRecord {
	v := &GNBLogRecord{}
	if !p.beginObject() {
		return v
	}
	for p.ok {
		switch string(p.fieldKey()) {
		case "At":
			v.At = sim.Time(p.i64())
		case "Kind":
			v.Kind = GNBLogKind(p.i64())
		case "Dir":
			v.Dir = netem.Direction(p.i64())
		case "BufferBytes":
			v.BufferBytes = int(p.i64())
		case "RNTI":
			v.RNTI = uint32(p.u64(32))
		case "Note":
			v.Note = p.stringValue()
		default:
			p.ok = false
		}
		if !p.ok || p.endField() {
			break
		}
	}
	return v
}

func decodePacketData(p *lineParser) *PacketRecord {
	v := &PacketRecord{}
	if !p.beginObject() {
		return v
	}
	for p.ok {
		switch string(p.fieldKey()) {
		case "Seq":
			v.Seq = p.u64(64)
		case "Kind":
			v.Kind = netem.MediaKind(p.i64())
		case "Dir":
			v.Dir = netem.Direction(p.i64())
		case "Size":
			v.Size = int(p.i64())
		case "SentAt":
			v.SentAt = sim.Time(p.i64())
		case "Arrived":
			v.Arrived = sim.Time(p.i64())
		default:
			p.ok = false
		}
		if !p.ok || p.endField() {
			break
		}
	}
	return v
}

func decodeStatsData(p *lineParser) *WebRTCStatsRecord {
	v := &WebRTCStatsRecord{}
	if !p.beginObject() {
		return v
	}
	for p.ok {
		switch string(p.fieldKey()) {
		case "At":
			v.At = sim.Time(p.i64())
		case "Local":
			v.Local = p.boolValue()
		case "InboundFPS":
			v.InboundFPS = p.f64()
		case "OutboundFPS":
			v.OutboundFPS = p.f64()
		case "OutboundHeight":
			v.OutboundHeight = int(p.i64())
		case "InboundHeight":
			v.InboundHeight = int(p.i64())
		case "VideoJBDelayMs":
			v.VideoJBDelayMs = p.f64()
		case "AudioJBDelayMs":
			v.AudioJBDelayMs = p.f64()
		case "MinJBDelayMs":
			v.MinJBDelayMs = p.f64()
		case "FrozenNow":
			v.FrozenNow = p.boolValue()
		case "FreezeTotalMs":
			v.FreezeTotalMs = p.f64()
		case "ConcealedSamples":
			v.ConcealedSamples = p.u64(64)
		case "TotalSamples":
			v.TotalSamples = p.u64(64)
		case "TargetBitrateBps":
			v.TargetBitrateBps = p.f64()
		case "PushbackRateBps":
			v.PushbackRateBps = p.f64()
		case "OutstandingBytes":
			v.OutstandingBytes = int(p.i64())
		case "CongestionWindow":
			v.CongestionWindow = int(p.i64())
		case "GCCNetState":
			v.GCCNetState = GCCState(p.i64())
		case "TrendlineSlope":
			v.TrendlineSlope = p.f64()
		case "TrendlineThreshold":
			v.TrendlineThreshold = p.f64()
		case "AckedBitrateBps":
			v.AckedBitrateBps = p.f64()
		default:
			p.ok = false
		}
		if !p.ok || p.endField() {
			break
		}
	}
	return v
}

func decodeRRCData(p *lineParser) *RRCRecord {
	v := &RRCRecord{}
	if !p.beginObject() {
		return v
	}
	for p.ok {
		switch string(p.fieldKey()) {
		case "At":
			v.At = sim.Time(p.i64())
		case "Connected":
			v.Connected = p.boolValue()
		case "RNTI":
			v.RNTI = uint32(p.u64(32))
		case "Cause":
			v.Cause = p.stringValue()
		default:
			p.ok = false
		}
		if !p.ok || p.endField() {
			break
		}
	}
	return v
}

// fastDecodeLine decodes one envelope line on the fast path. ok=false
// means only "not fast-path material": the caller must re-decode the
// line through the encoding/json oracle, which yields the identical
// record for valid inputs and the authoritative error for invalid ones.
func fastDecodeLine(line []byte) (Record, bool) {
	p := lineParser{buf: line, ok: true}
	p.skipWS()
	p.expect('{')
	p.skipWS()
	if k := p.key(); !p.ok || string(k) != "type" {
		return Record{}, false
	}
	p.skipWS()
	p.expect(':')
	p.skipWS()
	// The type tag is scanned as raw bytes (key() is exactly a
	// no-escape string scan), so dispatching allocates nothing.
	typ := p.key()
	p.skipWS()
	p.expect(',')
	p.skipWS()
	if k := p.key(); !p.ok || string(k) != "data" {
		return Record{}, false
	}
	p.skipWS()
	p.expect(':')
	if !p.ok {
		return Record{}, false
	}
	var rec Record
	switch string(typ) {
	case "header":
		rec.Header = decodeHeaderData(&p)
	case "dci":
		rec.DCI = decodeDCIData(&p)
	case "gnb":
		rec.GNB = decodeGNBData(&p)
	case "pkt":
		rec.Packet = decodePacketData(&p)
	case "stats":
		rec.Stats = decodeStatsData(&p)
	case "rrc":
		rec.RRC = decodeRRCData(&p)
	default:
		return Record{}, false
	}
	p.skipWS()
	p.expect('}')
	p.skipWS()
	if !p.ok || p.pos != len(p.buf) {
		return Record{}, false
	}
	return rec, true
}
