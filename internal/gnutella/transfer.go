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
func (cr *ChunkRequest) Encode() []byte {
	buf := encodeOneHop(cr.ID, TypeChunkRequest, chunkRequestPayload)
	binary.LittleEndian.PutUint32(buf[23:27], cr.FileIndex)
	binary.LittleEndian.PutUint32(buf[27:31], cr.Chunk)
	return buf
}

// WireSize returns the on-the-wire size including framing: ChunkRequestSize().
func (cr *ChunkRequest) WireSize() int { return ChunkRequestSize() }

// Type returns TypeChunkRequest.
func (cr *ChunkRequest) Type() MsgType { return TypeChunkRequest }

func (cr *ChunkRequest) frame() ([]byte, error) { return cr.Encode(), nil }

// DecodeChunkRequest parses an encoded chunk request.
func DecodeChunkRequest(buf []byte) (*ChunkRequest, error) {
	h, err := decodeFixed(buf, TypeChunkRequest, chunkRequestPayload)
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
type ChunkData struct {
	ID          GUID
	FileIndex   uint32
	Chunk       uint32
	TotalChunks uint32
	FileSize    uint64
	Data        []byte
}

// chunkDataPayload is the fixed part of a ChunkData payload.
const chunkDataPayload = 4 + 4 + 4 + 8

// MaxChunkLen bounds a single chunk's data bytes, keeping every ChunkData
// frame well under MaxPayloadLen so transfer links obey the same reader
// limits as every other link.
const MaxChunkLen = 1 << 20 // 1 MiB

// Encode serializes the chunk data (descriptor header + payload, no framing).
func (cd *ChunkData) Encode() ([]byte, error) {
	if len(cd.Data) > MaxChunkLen {
		return nil, fmt.Errorf("%w: chunk data %d bytes, max %d", ErrBadMessage, len(cd.Data), MaxChunkLen)
	}
	buf := encodeOneHop(cd.ID, TypeChunkData, chunkDataPayload+len(cd.Data))
	binary.LittleEndian.PutUint32(buf[23:27], cd.FileIndex)
	binary.LittleEndian.PutUint32(buf[27:31], cd.Chunk)
	binary.LittleEndian.PutUint32(buf[31:35], cd.TotalChunks)
	binary.LittleEndian.PutUint64(buf[35:43], cd.FileSize)
	copy(buf[43:], cd.Data)
	return buf, nil
}

// WireSize returns the on-the-wire size including framing; it equals
// ChunkDataSize(len(Data)).
func (cd *ChunkData) WireSize() int { return ChunkDataSize(len(cd.Data)) }

// Type returns TypeChunkData.
func (cd *ChunkData) Type() MsgType { return TypeChunkData }

func (cd *ChunkData) frame() ([]byte, error) { return cd.Encode() }

// DecodeChunkData parses an encoded chunk data frame.
func DecodeChunkData(buf []byte) (*ChunkData, error) {
	h, err := decodeOneHop(buf, TypeChunkData)
	if err != nil {
		return nil, err
	}
	if int(h.PayloadLen) != len(buf)-DescriptorHeaderLen || h.PayloadLen < chunkDataPayload {
		return nil, fmt.Errorf("%w: chunk data payload %d", ErrBadMessage, h.PayloadLen)
	}
	if int(h.PayloadLen)-chunkDataPayload > MaxChunkLen {
		return nil, fmt.Errorf("%w: chunk data %d bytes, max %d",
			ErrBadMessage, int(h.PayloadLen)-chunkDataPayload, MaxChunkLen)
	}
	cd := &ChunkData{
		ID:          h.ID,
		FileIndex:   binary.LittleEndian.Uint32(buf[23:27]),
		Chunk:       binary.LittleEndian.Uint32(buf[27:31]),
		TotalChunks: binary.LittleEndian.Uint32(buf[31:35]),
		FileSize:    binary.LittleEndian.Uint64(buf[35:43]),
	}
	if len(buf) > 43 {
		cd.Data = append([]byte(nil), buf[43:]...)
	}
	return cd, nil
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
func (cn *ChunkNack) Encode() []byte {
	buf := encodeOneHop(cn.ID, TypeChunkNack, chunkNackPayload)
	binary.LittleEndian.PutUint32(buf[23:27], cn.FileIndex)
	binary.LittleEndian.PutUint32(buf[27:31], cn.Chunk)
	buf[31] = cn.Code
	return buf
}

// WireSize returns the on-the-wire size including framing: ChunkNackSize().
func (cn *ChunkNack) WireSize() int { return ChunkNackSize() }

// Type returns TypeChunkNack.
func (cn *ChunkNack) Type() MsgType { return TypeChunkNack }

func (cn *ChunkNack) frame() ([]byte, error) { return cn.Encode(), nil }

// DecodeChunkNack parses an encoded chunk nack.
func DecodeChunkNack(buf []byte) (*ChunkNack, error) {
	h, err := decodeFixed(buf, TypeChunkNack, chunkNackPayload)
	if err != nil {
		return nil, err
	}
	cn := &ChunkNack{
		ID:        h.ID,
		FileIndex: binary.LittleEndian.Uint32(buf[23:27]),
		Chunk:     binary.LittleEndian.Uint32(buf[27:31]),
		Code:      buf[31],
	}
	if cn.Code < NackNotFound || cn.Code > NackBadRequest {
		return nil, fmt.Errorf("%w: chunk nack code %d", ErrBadMessage, cn.Code)
	}
	return cn, nil
}
