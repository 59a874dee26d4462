package gnutella

import (
	"encoding/binary"
	"fmt"
)

// Transfer-plane payload descriptors. These frames carry the download plane:
// after a QueryHit names a file and the super-peer serving it, the downloader
// opens a transfer link and pulls the file chunk by chunk — ChunkRequest asks
// for one chunk, ChunkData carries its bytes, and ChunkNack refuses a request
// the server cannot serve. Transfer traffic is a load class of its own
// (metrics.ClassTransfer) beside the paper's Table 2 taxonomy: the paper's
// cost model stops at QueryHit, and these frames price what happens next.
const (
	TypeChunkRequest MsgType = 0x17
	TypeChunkData    MsgType = 0x18
	TypeChunkNack    MsgType = 0x19
)

// ChunkRequest asks a serving node for one chunk of a file it advertised in a
// QueryHit. Chunk indices are 0-based; the sentinel index used for manifest
// requests is a transfer-plane convention, not a wire rule. Payload: 4-byte
// little-endian file index, 4-byte little-endian chunk index.
type ChunkRequest struct {
	ID        GUID
	FileIndex uint32
	Chunk     uint32
}

// chunkRequestPayload is a ChunkRequest's fixed payload length.
const chunkRequestPayload = 4 + 4

// Encode serializes the request (descriptor header + payload, no framing).
func (cr *ChunkRequest) Encode() []byte { return encoded(cr) }

func (cr *ChunkRequest) appendFrame(dst []byte) ([]byte, error) {
	dst, buf := appendOneHop(dst, cr.ID, TypeChunkRequest, chunkRequestPayload)
	binary.LittleEndian.PutUint32(buf[23:27], cr.FileIndex)
	binary.LittleEndian.PutUint32(buf[27:31], cr.Chunk)
	return dst, nil
}

// WireSize returns the on-the-wire size including framing: ChunkRequestSize().
func (cr *ChunkRequest) WireSize() int { return ChunkRequestSize() }

// Type returns TypeChunkRequest.
func (cr *ChunkRequest) Type() MsgType { return TypeChunkRequest }

// checkChunkRequest checks a ChunkRequest frame: its fixed size.
func checkChunkRequest(h Header, buf []byte) error { return checkFixed(h, buf, chunkRequestPayload) }

// DecodeChunkRequest parses an encoded chunk request.
func DecodeChunkRequest(buf []byte) (*ChunkRequest, error) {
	h, err := decodeChecked(buf, TypeChunkRequest, checkChunkRequest)
	if err != nil {
		return nil, err
	}
	return &ChunkRequest{
		ID:        h.ID,
		FileIndex: binary.LittleEndian.Uint32(buf[23:27]),
		Chunk:     binary.LittleEndian.Uint32(buf[27:31]),
	}, nil
}

// ChunkData answers one ChunkRequest with the chunk's bytes. TotalChunks and
// FileSize repeat the file's shape on every chunk so a downloader can size its
// resume bitmap from whichever response arrives first. Payload: 4-byte file
// index, 4-byte chunk index, 4-byte total chunk count, 8-byte file size (all
// little-endian), then the chunk bytes.
//
// A ChunkData may own its frame: Reserve points Data inside a buffer with
// room for the header in front, so a server fills the chunk where it will be
// sent and Encode writes only the header. One ChunkData reused across
// replies serves every chunk from one buffer.
type ChunkData struct {
	ID          GUID
	FileIndex   uint32
	Chunk       uint32
	TotalChunks uint32
	FileSize    uint64
	Data        []byte

	owned []byte // the frame Reserve placed Data in; nil until then
}

// chunkDataPayload is the fixed part of a ChunkData payload.
const chunkDataPayload = 4 + 4 + 4 + 8

// chunkDataHead is where a ChunkData frame's chunk bytes start.
const chunkDataHead = DescriptorHeaderLen + chunkDataPayload

// MaxChunkLen bounds a single chunk's data bytes, keeping every ChunkData
// frame well under MaxPayloadLen so transfer links obey the same reader
// limits as every other link.
const MaxChunkLen = 1 << 20 // 1 MiB

// Reserve makes Data n bytes inside the frame cd owns and returns it for the
// caller to fill. The frame is reused when it has room and regrown when it
// has not; a reused frame still holds the last chunk's bytes.
func (cd *ChunkData) Reserve(n int) []byte {
	if len(cd.owned) < chunkDataHead+n {
		cd.owned = make([]byte, chunkDataHead+n)
	}
	cd.Data = cd.owned[chunkDataHead : chunkDataHead+n : chunkDataHead+n]
	return cd.Data
}

// inFrame reports whether Data still starts where Reserve put it.
func (cd *ChunkData) inFrame() bool {
	return len(cd.Data) > 0 && len(cd.owned) > chunkDataHead && &cd.Data[0] == &cd.owned[chunkDataHead]
}

// Encode serializes the chunk data (descriptor header + payload, no framing).
// While Data is where Reserve put it, the header is written in front of it
// and the frame returned is cd's own, overwritten by the next Reserve and
// Encode; otherwise Data is copied into a new frame. Both give equal bytes.
func (cd *ChunkData) Encode() ([]byte, error) { return cd.appendFrame(nil) }

// appendFrame appends cd's frame to dst, except that given no dst while Data
// is where Reserve put it, it returns cd's own frame, as Encode does.
func (cd *ChunkData) appendFrame(dst []byte) ([]byte, error) {
	n := len(cd.Data)
	if n > MaxChunkLen {
		return nil, fmt.Errorf("%w: chunk data %d bytes, max %d", ErrBadMessage, n, MaxChunkLen)
	}
	var buf []byte
	if dst == nil && cd.inFrame() {
		buf = cd.owned[:chunkDataHead+n]
		putOneHop(buf, cd.ID, TypeChunkData)
		dst = buf
	} else {
		dst, buf = appendOneHop(dst, cd.ID, TypeChunkData, chunkDataPayload+n)
		copy(buf[chunkDataHead:], cd.Data)
	}
	binary.LittleEndian.PutUint32(buf[23:27], cd.FileIndex)
	binary.LittleEndian.PutUint32(buf[27:31], cd.Chunk)
	binary.LittleEndian.PutUint32(buf[31:35], cd.TotalChunks)
	binary.LittleEndian.PutUint64(buf[35:43], cd.FileSize)
	return dst, nil
}

// WireSize returns the on-the-wire size including framing; it equals
// ChunkDataSize(len(Data)).
func (cd *ChunkData) WireSize() int { return ChunkDataSize(len(cd.Data)) }

// Type returns TypeChunkData.
func (cd *ChunkData) Type() MsgType { return TypeChunkData }

// DecodeChunkData parses an encoded chunk data frame. The returned Data
// aliases buf (capped at its end, so an append copies): the caller must not
// reuse buf while the ChunkData is live. It is the one decoder that does not
// copy out, so ReadMessage reads a ChunkData, alone among frames, into a
// fresh buffer that is never recycled, and its ChunkData owns its bytes.
func DecodeChunkData(buf []byte) (*ChunkData, error) {
	h, err := decodeChecked(buf, TypeChunkData, checkChunkData)
	if err != nil {
		return nil, err
	}
	cd := &ChunkData{
		ID:          h.ID,
		FileIndex:   binary.LittleEndian.Uint32(buf[23:27]),
		Chunk:       binary.LittleEndian.Uint32(buf[27:31]),
		TotalChunks: binary.LittleEndian.Uint32(buf[31:35]),
		FileSize:    binary.LittleEndian.Uint64(buf[35:43]),
	}
	if len(buf) > 43 {
		cd.Data = buf[43:len(buf):len(buf)]
	}
	return cd, nil
}

// checkChunkData checks a ChunkData frame: the fixed fields, then at most
// MaxChunkLen chunk bytes.
func checkChunkData(h Header, buf []byte) error {
	if err := checkOneHop(h); err != nil {
		return err
	}
	if int(h.PayloadLen) != len(buf)-DescriptorHeaderLen || h.PayloadLen < chunkDataPayload {
		return fmt.Errorf("%w: chunk data payload %d", ErrBadMessage, h.PayloadLen)
	}
	if int(h.PayloadLen)-chunkDataPayload > MaxChunkLen {
		return fmt.Errorf("%w: chunk data %d bytes, max %d",
			ErrBadMessage, int(h.PayloadLen)-chunkDataPayload, MaxChunkLen)
	}
	return nil
}

// ChunkNack reason codes.
const (
	// NackNotFound: the server has no file under the requested index, or the
	// chunk index is out of range.
	NackNotFound uint8 = 1
	// NackBusy: the server's transfer plane is saturated; retry later or on
	// another source.
	NackBusy uint8 = 2
	// NackBadRequest: the request was structurally valid but unserviceable
	// (e.g. a manifest of an empty file).
	NackBadRequest uint8 = 3
)

// ChunkNack refuses one ChunkRequest. Payload: 4-byte file index, 4-byte
// chunk index (both little-endian), 1-byte reason code.
type ChunkNack struct {
	ID        GUID
	FileIndex uint32
	Chunk     uint32
	Code      uint8
}

// chunkNackPayload is a ChunkNack's fixed payload length.
const chunkNackPayload = 4 + 4 + 1

// Encode serializes the nack (descriptor header + payload, no framing).
func (cn *ChunkNack) Encode() []byte { return encoded(cn) }

func (cn *ChunkNack) appendFrame(dst []byte) ([]byte, error) {
	dst, buf := appendOneHop(dst, cn.ID, TypeChunkNack, chunkNackPayload)
	binary.LittleEndian.PutUint32(buf[23:27], cn.FileIndex)
	binary.LittleEndian.PutUint32(buf[27:31], cn.Chunk)
	buf[31] = cn.Code
	return dst, nil
}

// WireSize returns the on-the-wire size including framing: ChunkNackSize().
func (cn *ChunkNack) WireSize() int { return ChunkNackSize() }

// Type returns TypeChunkNack.
func (cn *ChunkNack) Type() MsgType { return TypeChunkNack }

// checkChunkNack checks a ChunkNack frame: its fixed size and a known code.
func checkChunkNack(h Header, buf []byte) error {
	if err := checkFixed(h, buf, chunkNackPayload); err != nil {
		return err
	}
	if code := buf[31]; code < NackNotFound || code > NackBadRequest {
		return fmt.Errorf("%w: chunk nack code %d", ErrBadMessage, code)
	}
	return nil
}

// DecodeChunkNack parses an encoded chunk nack.
func DecodeChunkNack(buf []byte) (*ChunkNack, error) {
	h, err := decodeChecked(buf, TypeChunkNack, checkChunkNack)
	if err != nil {
		return nil, err
	}
	return &ChunkNack{
		ID:        h.ID,
		FileIndex: binary.LittleEndian.Uint32(buf[23:27]),
		Chunk:     binary.LittleEndian.Uint32(buf[27:31]),
		Code:      buf[31],
	}, nil
}
