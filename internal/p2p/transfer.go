package p2p

import (
	"fmt"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/index"
	"spnet/internal/metrics"
	"spnet/internal/transfer"
)

// storeOwner is the reserved index owner id under which a node's own content
// Store is indexed. Client owner ids are assigned sequentially from 0, so the
// store's catalog can never collide with a real client; unlike client docs,
// store docs answer QueryHits with the node's own listen address — a dialable
// transfer source.
const storeOwner = 1 << 30

// indexStore adds the content store's catalog to the node's inverted index,
// so queries hit served files exactly like client collections.
func (n *Node) indexStore(s *transfer.Store) {
	for _, f := range s.Files() {
		if terms := titleTerms(f.Title); len(terms) > 0 {
			n.core.index.Add(index.DocID{Owner: storeOwner, File: f.Index}, terms)
		}
	}
}

// runTransfer serves one transfer link: a strict request/response loop over
// the content store. Responses go back in request order, which is what lets
// the downloader pipeline a window of requests per source. Every reply is
// built in one ChunkData, whose frame the link's chunks share: each is sent
// before the next request is read.
func (n *Node) runTransfer(c *conn) {
	defer c.Close()
	var reply gnutella.ChunkData
	for {
		msg, err := c.Recv(time.Time{})
		if err != nil {
			return
		}
		req, ok := msg.(*gnutella.ChunkRequest)
		if !ok {
			n.opts.Logf("p2p: unexpected %T on transfer link from %s", msg, c.RemoteAddr())
			return
		}
		if err := n.serveChunk(c, req, &reply); err != nil {
			n.opts.Logf("p2p: serving chunk to %s: %v", c.RemoteAddr(), err)
			return
		}
	}
}

// serveChunk answers one ChunkRequest from the store in reply, pacing data
// chunks through the node's transfer-rate bucket; Close cuts a pacing wait
// short. Unknown files or chunk indices are nacked, not dropped, so the
// downloader can re-aim immediately.
func (n *Node) serveChunk(c *conn, req *gnutella.ChunkRequest, reply *gnutella.ChunkData) error {
	if !n.opts.Content.FillChunk(req.FileIndex, req.Chunk, reply) {
		return c.send(&gnutella.ChunkNack{
			ID: req.ID, FileIndex: req.FileIndex, Chunk: req.Chunk,
			Code: gnutella.NackNotFound,
		})
	}
	reply.ID = req.ID
	if data := reply.Data; req.Chunk != transfer.ManifestChunk {
		if n.core.mis.forgeChunk() && len(data) > 0 {
			// Adversary: flip bits in the payload. The manifest hash check on
			// the receiving side is what catches this.
			data[0] ^= 0xA5
		}
		if !n.xferLimit.wait(len(data), n.stop) {
			return errClosed
		}
		n.metrics.TransferBytes[metrics.DirOut].Add(int64(len(data)))
	}
	return c.send(reply)
}

// TransferSources distills search results into dialable download sources for
// one exact title: unique responder addresses paired with the file index each
// advertised. Results without a dialable address (forged, or clients behind
// ephemeral ports) are skipped.
func TransferSources(results []SearchResult, title string) []transfer.Source {
	seen := make(map[string]bool)
	var out []transfer.Source
	for _, r := range results {
		if title != "" && r.Title != title {
			continue
		}
		if !r.Genuine() {
			continue
		}
		addr := fmt.Sprintf("%d.%d.%d.%d:%d",
			r.OwnerIP[0], r.OwnerIP[1], r.OwnerIP[2], r.OwnerIP[3], r.OwnerPort)
		if seen[addr] {
			continue
		}
		seen[addr] = true
		out = append(out, transfer.Source{Addr: addr, FileIndex: r.FileIndex})
	}
	return out
}
