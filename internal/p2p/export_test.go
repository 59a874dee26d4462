package p2p

import (
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/metrics"
)

// The lockstep driver (lockstep_test.go) is in package p2p_test, because it
// builds its instances with network and prices them with analysis, and both
// import p2p. These names hand it the query core.

// Core is the query core, as the lockstep driver sees it.
type Core = core

// Send is one send the core decides.
type Send = send

// OwnLink is the link id of the node's own search.
const OwnLink = ownLink

// NewCore returns the core of an honest flooding node with the given TTL.
func NewCore(ttl int) *Core { return newCore(&Options{TTL: ttl}, metrics.NewNodeMetrics()) }

// Link and Msg are a send's link id and frame.
func (s send) Link() int             { return s.to }
func (s send) Msg() gnutella.Message { return s.m }

// AddPeer adds a peer link id.
func (c *core) AddPeer(id int) { c.addPeer(id) }

// Join joins owner, at a dialable address, sharing one file titled title.
func (c *core) Join(owner int, title string) {
	rec := gnutella.ResponderRecord{IP: [4]byte{127, 0, 0, 1}, Port: uint16(6346 + owner)}
	c.join(owner, rec, []gnutella.MetadataRecord{{FileIndex: uint32(owner), Title: title}})
}

// Query hands the core one query that arrived on link from.
func (c *core) Query(from int, q *gnutella.Query, now time.Time) []send {
	return c.query(from, q, now, nil)
}

// Respond hands the core one response that arrived on link from, as a peer
// link's reader does, as a Frame, and decodes each Frame the core sends on,
// as the next hop's reader reads it.
func (c *core) Respond(from int, m gnutella.Message) []send {
	return decoded(c.respond(from, frameOf(m), nil))
}
