// Package httpconn holds the connection policy that the full-duplex
// /v1/stream handlers of internal/serve and internal/gate share.
//
// A full-duplex handler may reply before it has read the request body. If it
// returns with body bytes still unread, net/http drains them after the
// handler. Reaching EOF there starts the server's background read on the
// connection, and a keep-alive connection then races that read against the
// next request's: the client sees EOF or a recovered "invalid concurrent
// Body.Read call" panic. Such a connection is closed after the reply
// instead of being handed back for another request.
package httpconn

import (
	"bytes"
	"io"
	"net/http"
)

// CloseAfterReply makes net/http close the client connection once the
// current response is complete instead of reading another request from it.
// An overflowing MaxBytesReader is net/http's one public lever for that: it
// marks the response close-after-reply (and sends Connection: close if the
// header is not written yet), which works mid-stream too. The lever needs
// the server's own ResponseWriter, so wrappers are unwrapped first.
func CloseAfterReply(w http.ResponseWriter) {
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			break
		}
		w = u.Unwrap()
	}
	var one [1]byte
	http.MaxBytesReader(w, io.NopCloser(bytes.NewReader(one[:])), 0).Read(one[:])
}
