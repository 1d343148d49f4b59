package gate

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"rpbeat/internal/serve"
	"rpbeat/internal/wire"
)

// TestStreamKeepAliveReuse sends many short streams back to back on one
// keep-alive client connection through the gateway. The relay must hand a
// connection whose upload it read to the end back to net/http untouched: a
// read deadline set on it as the handler returns races net/http's
// background read, which then cancels the connection and fails the next
// request on it (499 canceled, or a recovered "invalid concurrent
// Body.Read call" panic).
func TestStreamKeepAliveReuse(t *testing.T) {
	s := newGateStack(t, 1, serve.HandlerConfig{}, Config{})
	defer s.Close()

	lead := testLead(1, 23)
	body := mustFrame(t, lead[:180])
	body = append(body, mustFrame(t, lead[180:])...)
	want := streamDirect(t, s.backends[0], body)

	client := s.ts.Client()
	reused := 0
	const streams = 200
	for i := 0; i < streams; i++ {
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused++
			}
		}}
		req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
		req.Header.Set("Content-Type", wire.ContentTypeSamples)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("stream %d: reading the response: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: status %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stream %d: relayed body diverges from the direct run\nrelayed: %q\ndirect:  %q", i, got, want)
		}
	}
	// The streams must actually have shared connections, or the test
	// proves nothing about keep-alive.
	if reused < streams/2 {
		t.Fatalf("only %d of %d streams reused a connection", reused, streams)
	}
}

// TestStreamRelayClosesUnfinishedUpload: when a stream's response ends
// while the client is still uploading, the relay has to break the pump's
// blocked body read with a deadline, and a connection that had one is not
// handed back for another request: net/http closes it after the response.
func TestStreamRelayClosesUnfinishedUpload(t *testing.T) {
	s := newGateStack(t, 1, serve.HandlerConfig{}, Config{})
	defer s.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(s.ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One chunk of garbage in place of a sample frame; the upload itself is
	// never finished. The backend refuses the stream at once.
	garbage := "not a sample frame\n"
	fmt.Fprintf(conn, "POST /v1/stream HTTP/1.1\r\nHost: gate\r\nContent-Type: %s\r\n"+
		"Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n", wire.ContentTypeSamples, len(garbage), garbage)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading the response: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, got)
	}
	// The server must now close the connection rather than wait for a next
	// request on it.
	if n, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after the response: read %v, %v", n, err)
	}
}
