// Package gnutella models the wire format the paper's cost model is derived
// from (Section 4, Step 2): Gnutella 0.4 message layouts plus the Join and
// Update messages super-peer networks add, with byte-exact on-the-wire sizes
// including Ethernet and TCP/IP framing. The size formulas here are the
// bandwidth column of the paper's Table 2; the binary codec in wire.go is
// used by the message-level simulator.
package gnutella

// Framing and header constants. The paper: "query messages in Gnutella
// include a 22-byte Gnutella header, a 2 byte field for flags, and a
// null-terminated query string. Total size of a query message, including
// Ethernet and TCP/IP headers, is therefore 82 + query string length."
const (
	// DescriptorHeaderLen is the Gnutella descriptor header: 16-byte
	// descriptor ID (GUID), 1-byte payload type, 1-byte TTL, 1-byte hops,
	// 4-byte payload length.
	DescriptorHeaderLen = 23

	// FrameOverhead is the per-packet Ethernet + TCP/IP framing the paper
	// folds into every message size: 82 = frame + 23-byte header + 2-byte
	// flags + 1 NUL, so framing accounts for 56 bytes.
	FrameOverhead = 56

	// QueryFixedLen is the fixed part of a query message on the wire:
	// framing + descriptor header + 2-byte minimum-speed flags + NUL
	// terminator. Total query size = QueryFixedLen + len(query string).
	QueryFixedLen = 82

	// ResponseFixedLen is the fixed part of a query-response message:
	// framing + descriptor header + 1-byte hit count. Table 2 charges
	// 80 + 28·#addr + 76·#results.
	ResponseFixedLen = 80

	// ResponderRecordLen is the per-responding-client overhead in a
	// Response: the address block naming a client whose collection produced
	// results (IP, port, speed, servent GUID fragment) — 28 bytes per
	// address in Table 2.
	ResponderRecordLen = 28

	// ResultRecordLen is the average size of one result record (file index,
	// file size, title string) as measured over Gnutella: 76 bytes
	// (paper Table 3).
	ResultRecordLen = 76

	// JoinFixedLen is the fixed part of a Join message: framing + header +
	// collection-size field. Table 2 charges 80 + 72·#files.
	JoinFixedLen = 80

	// MetadataRecordLen is the average metadata size for a single shared
	// file sent at join time: 72 bytes (paper Table 3).
	MetadataRecordLen = 72

	// UpdateLen is the size of an Update message: one metadata record plus
	// framing and header — 152 bytes in Table 2.
	UpdateLen = 152

	// DefaultQueryStringLen is the expected query-string length measured
	// over Gnutella: 12 bytes (paper Table 3). Average query message is
	// therefore 94 bytes, the figure quoted in Section 4.
	DefaultQueryStringLen = 12

	// PingLen is the size of a heartbeat Ping or Pong on the wire: framing
	// plus the bare descriptor header. Heartbeats are a liveness mechanism
	// of the runnable stack, not part of the paper's cost model, which
	// prices only query/response/join/update traffic.
	PingLen = FrameOverhead + DescriptorHeaderLen
)

// SummarySize returns the on-the-wire size of a Summary message advertising
// numTerms terms whose UTF-8 lengths total termBytes: framing + descriptor
// header + 2-byte term count + a 1-byte length prefix per term. Summaries
// propagate routing-index digests between super-peers; like heartbeats they
// are outside the paper's Table 2 cost model.
func SummarySize(numTerms, termBytes int) int {
	return FrameOverhead + DescriptorHeaderLen + 2 + numTerms + termBytes
}

// QuerySize returns the on-the-wire size of a query whose string has the
// given length: 82 + query length.
func QuerySize(queryLen int) int { return QueryFixedLen + queryLen }

// ResponseSize returns the on-the-wire size of a Response message carrying
// the given number of responding-client addresses and result records:
// 80 + 28·#addr + 76·#results.
func ResponseSize(numAddrs, numResults int) int {
	return ResponseFixedLen + ResponderRecordLen*numAddrs + ResultRecordLen*numResults
}

// JoinSize returns the on-the-wire size of a Join message carrying metadata
// for numFiles files: 80 + 72·#files.
func JoinSize(numFiles int) int { return JoinFixedLen + MetadataRecordLen*numFiles }

// UpdateSize returns the on-the-wire size of an Update message: 152 bytes.
func UpdateSize() int { return UpdateLen }

// PingSize returns the on-the-wire size of a heartbeat Ping or Pong: 79 bytes.
func PingSize() int { return PingLen }

// RegisterSize returns the on-the-wire size of a Register message: framing +
// descriptor header + 1-byte flags + 8-byte epoch + 8-byte In and Out +
// 2-byte Clients: 106 bytes. Control frames are fleet-management traffic
// outside the paper's Table 2 cost model.
func RegisterSize() int { return FrameOverhead + DescriptorHeaderLen + registerPayload }

// DirectiveSize returns the on-the-wire size of a Directive message: framing
// + descriptor header + 8-byte epoch + action and TTL bytes + 2-byte capacity.
func DirectiveSize() int { return FrameOverhead + DescriptorHeaderLen + directivePayload }

// PollSize returns the on-the-wire size of a Poll: framing + descriptor
// header, 79 bytes.
func PollSize() int { return FrameOverhead + DescriptorHeaderLen }

// ChunkRequestSize returns the on-the-wire size of a ChunkRequest: framing +
// descriptor header + 4-byte file index + 4-byte chunk index. Transfer frames
// form their own load class (metrics.ClassTransfer) beside Table 2.
func ChunkRequestSize() int {
	return FrameOverhead + DescriptorHeaderLen + chunkRequestPayload
}

// ChunkDataSize returns the on-the-wire size of a ChunkData frame carrying
// dataLen chunk bytes: framing + descriptor header + 20 fixed bytes (file
// index, chunk index, total chunks, file size) + the chunk bytes.
func ChunkDataSize(dataLen int) int {
	return FrameOverhead + DescriptorHeaderLen + chunkDataPayload + dataLen
}

// ChunkNackSize returns the on-the-wire size of a ChunkNack: framing +
// descriptor header + 4-byte file index + 4-byte chunk index + 1-byte code.
func ChunkNackSize() int {
	return FrameOverhead + DescriptorHeaderLen + chunkNackPayload
}
