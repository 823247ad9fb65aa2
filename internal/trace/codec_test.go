package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
)

// oracleLine is the reflection-based encoder the hand-rolled codec
// replaced: json.Marshal of the record inside the {"type","data"}
// envelope, exactly as the old WriteJSONL produced it (sans newline).
func oracleLine(t testing.TB, typ string, v any) ([]byte, error) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(jsonLine{Type: typ, Data: data}); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// oracleDecodeLine is the stdlib double-unmarshal the fast decoder
// shortcuts; StreamReader still uses it as the fallback.
func oracleDecodeLine(line []byte) (Record, error) {
	var l jsonLine
	if err := json.Unmarshal(line, &l); err != nil {
		return Record{}, err
	}
	switch l.Type {
	case "header":
		var h jsonHeader
		if err := json.Unmarshal(l.Data, &h); err != nil {
			return Record{}, err
		}
		return Record{Header: &Header{CellName: h.CellName, Scenario: h.Scenario, Duration: sim.Time(h.Duration), HasGNBLog: h.HasGNBLog}}, nil
	case "dci":
		var v DCIRecord
		return Record{DCI: &v}, json.Unmarshal(l.Data, &v)
	case "gnb":
		var v GNBLogRecord
		return Record{GNB: &v}, json.Unmarshal(l.Data, &v)
	case "pkt":
		var v PacketRecord
		return Record{Packet: &v}, json.Unmarshal(l.Data, &v)
	case "stats":
		var v WebRTCStatsRecord
		return Record{Stats: &v}, json.Unmarshal(l.Data, &v)
	case "rrc":
		var v RRCRecord
		return Record{RRC: &v}, json.Unmarshal(l.Data, &v)
	default:
		return Record{}, errUnknownType(l.Type)
	}
}

type errUnknownType string

func (e errUnknownType) Error() string { return "unknown record type " + string(e) }

// fastEncodeRecord dispatches to the append encoder for one record.
func fastEncodeRecord(dst []byte, rec Record) ([]byte, error) {
	switch {
	case rec.Header != nil:
		return appendHeaderLine(dst, rec.Header), nil
	case rec.DCI != nil:
		return appendDCILine(dst, rec.DCI), nil
	case rec.GNB != nil:
		return appendGNBLine(dst, rec.GNB), nil
	case rec.Packet != nil:
		return appendPacketLine(dst, rec.Packet), nil
	case rec.Stats != nil:
		return appendStatsLine(dst, rec.Stats)
	case rec.RRC != nil:
		return appendRRCLine(dst, rec.RRC), nil
	}
	return dst, nil
}

func recordTypeName(rec Record) string {
	switch {
	case rec.Header != nil:
		return "header"
	case rec.DCI != nil:
		return "dci"
	case rec.GNB != nil:
		return "gnb"
	case rec.Packet != nil:
		return "pkt"
	case rec.Stats != nil:
		return "stats"
	case rec.RRC != nil:
		return "rrc"
	}
	return ""
}

func recordPayload(rec Record) any {
	switch {
	case rec.Header != nil:
		return jsonHeader{CellName: rec.Header.CellName, Scenario: rec.Header.Scenario, Duration: int64(rec.Header.Duration), HasGNBLog: rec.Header.HasGNBLog}
	case rec.DCI != nil:
		return *rec.DCI
	case rec.GNB != nil:
		return *rec.GNB
	case rec.Packet != nil:
		return *rec.Packet
	case rec.Stats != nil:
		return *rec.Stats
	case rec.RRC != nil:
		return *rec.RRC
	}
	return nil
}

// checkEncodeMatchesOracle pins fast encode == oracle encode for one
// record, including error agreement (NaN/Inf).
func checkEncodeMatchesOracle(t *testing.T, rec Record) {
	t.Helper()
	fast, fastErr := fastEncodeRecord(nil, rec)
	want, oracleErr := oracleLine(t, recordTypeName(rec), recordPayload(rec))
	if (fastErr == nil) != (oracleErr == nil) {
		t.Fatalf("error disagreement: fast=%v oracle=%v for %+v", fastErr, oracleErr, rec)
	}
	if fastErr != nil {
		return
	}
	if !bytes.Equal(fast, want) {
		t.Fatalf("encoding mismatch:\nfast:   %s\noracle: %s", fast, want)
	}
	// Round trip: when the fast decoder accepts the line it must agree
	// with the oracle decoder exactly. Lines with escapes bail to the
	// fallback by design, so the oracle is the reference either way —
	// comparing against the original record would be wrong for lossy
	// inputs (invalid UTF-8 is replaced with U+FFFD on encode).
	oracleRec, err := oracleDecodeLine(fast)
	if err != nil {
		t.Fatalf("oracle decoder rejected oracle-encoded line %s: %v", fast, err)
	}
	if back, ok := fastDecodeLine(fast); ok {
		if !reflect.DeepEqual(back, oracleRec) {
			t.Fatalf("round trip mismatch on %s:\nfast:   %+v\noracle: %+v", fast, back, oracleRec)
		}
	}
}

// TestCodecDifferentialQuick drives randomized records of every type
// through encoder and decoder against the encoding/json oracle.
func TestCodecDifferentialQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(v DCIRecord) bool {
		checkEncodeMatchesOracle(t, Record{DCI: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v GNBLogRecord) bool {
		checkEncodeMatchesOracle(t, Record{GNB: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v PacketRecord) bool {
		checkEncodeMatchesOracle(t, Record{Packet: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v WebRTCStatsRecord) bool {
		checkEncodeMatchesOracle(t, Record{Stats: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v RRCRecord) bool {
		checkEncodeMatchesOracle(t, Record{RRC: &v})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(h Header) bool {
		checkEncodeMatchesOracle(t, Record{Header: &h})
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCodecEdgeValues exercises the encoder corners quick rarely hits:
// float formats the stdlib special-cases, strings needing every escape
// class, and the NaN/Inf error path.
func TestCodecEdgeValues(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 1e20, 1e21, -1e21,
		123456.789, 3.141592653589793, 2.5e-9, 6.02e23, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	for _, f := range floats {
		checkEncodeMatchesOracle(t, Record{Stats: &WebRTCStatsRecord{InboundFPS: f, TrendlineSlope: -f}})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncodeMatchesOracle(t, Record{Stats: &WebRTCStatsRecord{AckedBitrateBps: bad}})
	}
	strs := []string{
		"", "plain", "with \"quotes\" and \\slashes\\",
		"html <tags> & ampersands", "newline\ntab\tcr\r", "nul\x00bell\x07",
		"backspace\b formfeed\f",
		"unicode ✓ ☂ 日本語", "line sep \u2028 and \u2029 end",
		"invalid \xff\xfe utf8", "trailing continuation \xc3",
	}
	for _, s := range strs {
		checkEncodeMatchesOracle(t, Record{GNB: &GNBLogRecord{Note: s}})
		checkEncodeMatchesOracle(t, Record{RRC: &RRCRecord{Cause: s}})
		checkEncodeMatchesOracle(t, Record{Header: &Header{CellName: s, Scenario: s}})
	}
	ints := []int{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for _, n := range ints {
		checkEncodeMatchesOracle(t, Record{DCI: &DCIRecord{At: sim.Time(n), OwnPRB: n}})
	}
	checkEncodeMatchesOracle(t, Record{Packet: &PacketRecord{Seq: math.MaxUint64, Kind: netem.MediaKind(-3)}})
}

// TestFastDecodeSubsetAgreesWithOracle pins the fast decoder's subset
// property on hand-picked lines: whenever the fast path accepts a line
// the oracle must accept it with the identical record, and lines the
// fast path rejects must still decode correctly through the fallback
// (exercised via StreamReader in streamio_test.go).
func TestFastDecodeSubsetAgreesWithOracle(t *testing.T) {
	lines := []string{
		`{"type":"header","data":{"cell_name":"c","duration_us":5,"has_gnb_log":true}}`,
		`{"type":"header","data":{"cell_name":"c","scenario":"s","duration_us":5,"has_gnb_log":false}}`,
		`{"type":"dci","data":{"At":1,"Dir":0,"RNTI":70,"OwnPRB":2,"OtherPRB":3,"MCS":4,"TBSBits":5,"UsedBits":6,"HARQRetx":true,"RLCRetx":false,"Proactive":true,"Unused":false}}`,
		`{"type":"dci","data":{"At":-9223372036854775808}}`,
		`{"type":"pkt","data":{"Seq":18446744073709551615,"Size":-1}}`,
		`{"type":"stats","data":{"InboundFPS":29.97,"TrendlineSlope":-1.5e-9,"At":123}}`,
		`{"type":"rrc","data":{"At":5,"Connected":true,"Cause":"inactivity timer"}}`,
		`{"type":"gnb","data":{"Note":"plain ascii"}}`,
		` { "type" : "rrc" , "data" : { "At" : 7 } } `,
		`{"type":"dci","data":{}}`,
		// Duplicate key: last one wins in both decoders.
		`{"type":"rrc","data":{"At":1,"At":2}}`,
	}
	for _, line := range lines {
		fast, ok := fastDecodeLine([]byte(line))
		if !ok {
			t.Fatalf("fast path rejected canonical line %s", line)
		}
		want, err := oracleDecodeLine([]byte(line))
		if err != nil {
			t.Fatalf("oracle rejected %s: %v", line, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("decode mismatch on %s:\nfast:   %+v\noracle: %+v", line, fast, want)
		}
	}

	// Lines the fast path must bail on (stdlib semantics the scanner
	// does not reimplement) — the production path still decodes or
	// rejects them via the fallback, so bailing just means "slow".
	bail := []string{
		`{"type":"rrc","data":{"at":5}}`,                    // case-folded key
		`{"type":"rrc","data":{"At":null}}`,                 // null literal
		`{"type":"rrc","data":{"At":1e2}}`,                  // exponent for int field
		`{"type":"rrc","data":{"At":01}}`,                   // leading zero
		`{"type":"rrc","data":{"Cause":"a\u0041b"}}`,        // escaped string
		`{"type":"rrc","data":{"Bogus":1}}`,                 // unknown field
		`{"type":"mystery","data":{}}`,                      // unknown type
		`{"data":{"At":1},"type":"rrc"}`,                    // reordered envelope
		`{"type":"rrc","data":{"At":1}}trailing`,            // trailing garbage
		`{"type":"rrc","data":[1,2]}`,                       // wrong data shape
		`{"type":"rrc","data":{"At":9223372036854775808}}`,  // int64 overflow
		`{"type":"pkt","data":{"Seq":-1}}`,                  // negative uint
		`{"type":"stats","data":{"InboundFPS":1.797e+309}}`, // float overflow
	}
	for _, line := range bail {
		if rec, ok := fastDecodeLine([]byte(line)); ok {
			t.Fatalf("fast path accepted %s as %+v; it must defer to the oracle", line, rec)
		}
	}
}

// FuzzCodecDifferential feeds arbitrary line bytes to the fast decoder:
// whenever it accepts, the oracle must agree record-for-record, and
// re-encoding the record must match the oracle encoder byte-for-byte.
func FuzzCodecDifferential(f *testing.F) {
	set := sampleSet()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, set); err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 {
			f.Add(string(line))
		}
	}
	f.Add(`{"type":"stats","data":{"InboundFPS":1e-7}}`)
	f.Add(`{"type":"dci","data":{"At":-1,"Unused":true}}`)
	f.Add(`{"type":"rrc","data":{"Cause":"«utf8»"}}`)
	f.Fuzz(func(t *testing.T, line string) {
		rec, ok := fastDecodeLine([]byte(line))
		if !ok {
			return // slow-path material; the fallback owns it
		}
		want, err := oracleDecodeLine([]byte(line))
		if err != nil {
			t.Fatalf("fast path accepted %q but oracle errors: %v", line, err)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("decode mismatch on %q:\nfast:   %+v\noracle: %+v", line, rec, want)
		}
		checkEncodeMatchesOracle(t, rec)
	})
}

// TestEncodeAllocs guards the zero-allocation encode contract for the
// string-free hot records (steady-state WriteJSONL reuses one buffer).
func TestEncodeAllocs(t *testing.T) {
	dci := DCIRecord{At: 12345, OwnPRB: 20, MCS: 17, TBSBits: 8192, HARQRetx: true}
	pkt := PacketRecord{Seq: 99, Size: 1200, SentAt: 777, Arrived: 888}
	stats := WebRTCStatsRecord{At: 555, InboundFPS: 29.97, TargetBitrateBps: 2.5e6}
	buf := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(200, func() {
		buf = appendDCILine(buf[:0], &dci)
		buf = appendPacketLine(buf[:0], &pkt)
		var err error
		buf, err = appendStatsLine(buf[:0], &stats)
		if err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("encode allocates %v/record-batch, want 0", avg)
	}
}

// TestDecodeAllocs guards the fast decoder's allocation budget: one
// record struct per line, nothing else (strings excepted).
func TestDecodeAllocs(t *testing.T) {
	line := []byte(`{"type":"stats","data":{"At":555,"Local":true,"InboundFPS":29.97,"TargetBitrateBps":2.5e+06,"GCCNetState":1}}`)
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := fastDecodeLine(line); !ok {
			t.Fatal("fast path rejected canonical stats line")
		}
	}); avg > 1 {
		t.Fatalf("decode allocates %v/record, want ≤1 (the record struct)", avg)
	}
}

// TestWriteJSONLMatchesLegacyEncoder regenerates a sample set through
// the new writer and through a line-by-line oracle re-encode, pinning
// whole-file byte equality — the golden-trace guarantee.
func TestWriteJSONLMatchesLegacyEncoder(t *testing.T) {
	set := sampleSet()
	var got bytes.Buffer
	if err := WriteJSONL(&got, set); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(bytes.NewReader(got.Bytes()))
	var want bytes.Buffer
	for {
		rec, err := sr.Next()
		if err != nil {
			break
		}
		line, err := oracleLine(t, recordTypeName(rec), recordPayload(rec))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteJSONL output differs from the encoding/json oracle")
	}
}
