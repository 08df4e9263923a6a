package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
)

// refusalKinds is one refusal per statusTable row, then a shed request,
// each carrying msg.
func refusalKinds(msg string) []error {
	var out []error
	for _, row := range statusTable {
		out = append(out, &Error{Kind: row.kind, Msg: msg})
	}
	return append(out,
		&Error{Kind: &admission.Overload{Shard: 1, Reason: "rate", RetryAfter: 2500 * time.Millisecond}, Msg: msg},
	)
}

// FuzzDecodeError checks DecodeError two ways. Over arbitrary status,
// Retry-After and body bytes it never panics and never returns nil.
// Over the response writeError records for each refusal kind, it gives
// back the kind of the first statusTable row for that status (or the
// overload a 429 carries), with the message as one JSON round trip
// leaves it.
func FuzzDecodeError(f *testing.F) {
	const seedMsg = "no such dataset"
	for i, err := range refusalKinds(seedMsg) {
		rec := httptest.NewRecorder()
		writeError(rec, err)
		f.Add(rec.Code, rec.Header().Get("Retry-After"), rec.Body.Bytes(), uint8(i), seedMsg)
	}
	f.Fuzz(func(t *testing.T, status int, retryAfter string, body []byte, kind uint8, msg string) {
		header := http.Header{}
		header.Set("Retry-After", retryAfter)
		if DecodeError(status, header, bytes.NewReader(body)) == nil {
			t.Fatalf("DecodeError(%d, %q, %q) = nil", status, retryAfter, body)
		}

		kinds := refusalKinds(msg)
		i := int(kind) % len(kinds)
		sent := kinds[i]
		rec := httptest.NewRecorder()
		writeError(rec, sent)
		got := DecodeError(rec.Code, rec.Header(), rec.Body)

		var ov *admission.Overload
		switch {
		case errors.As(sent, &ov):
			var back *admission.Overload
			if !errors.As(got, &back) || strconv.Itoa(int(back.RetryAfter/time.Second)) != admission.RetryAfterSeconds(ov.RetryAfter) {
				t.Fatalf("%v came back as %#v", sent, got)
			}
		default:
			if rec.Code != statusTable[i].status {
				t.Fatalf("%v written as %d, want %d", sent, rec.Code, statusTable[i].status)
			}
			for _, row := range statusTable {
				if row.status == rec.Code {
					if !errors.Is(got, row.kind) {
						t.Fatalf("status %d came back as %v, want kind %v", rec.Code, got, row.kind)
					}
					break
				}
			}
		}
		want := jsonRoundTrip(t, msg)
		if want == "" {
			want = http.StatusText(rec.Code)
		}
		if got.Error() != want {
			t.Fatalf("message %q came back as %q, want %q", msg, got.Error(), want)
		}
	})
}

// jsonRoundTrip is s after one encode and decode: invalid UTF-8 becomes
// U+FFFD.
func jsonRoundTrip(t *testing.T, s string) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}
