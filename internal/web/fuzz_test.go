package web

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// bodyOutcome is what the submit handler makes of a decode: the status
// it answers a failure with (0 for success), the error text its body
// carries, and the spec it goes on with.
type bodyOutcome struct {
	status int
	errMsg string
	spec   submitSpec
}

func outcomeOf(spec submitSpec, err error) bodyOutcome {
	if err == nil {
		return bodyOutcome{spec: spec}
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	return bodyOutcome{status: status, errMsg: "bad request body: " + err.Error(), spec: spec}
}

// FuzzSubmitBody: for any body, decodeSubmit answers as the decoder it
// replaced — json.NewDecoder over the body capped at maxSubmitBody —
// with the same status, the same spec and the same error text.
func FuzzSubmitBody(f *testing.F) {
	valid := `{"id": 7, "key": "k1", "model": "LSTM", "workers": 1, "gpu_hours": 0.05}`
	f.Add([]byte(valid))
	f.Add([]byte(valid + ` trailing`))                                        // data after the first value
	f.Add([]byte(valid + valid))                                              // two objects
	f.Add([]byte(valid[:len(valid)/2]))                                       // truncated
	f.Add([]byte(`{"key": "` + strings.Repeat("k", maxSubmitBody-10) + `"}`)) // 64 KiB + 1
	f.Add([]byte(valid + strings.Repeat(" ", maxSubmitBody)))                 // first value ends early
	f.Add([]byte(`[1, 2, 3]`))                                                // not an object
	f.Add([]byte(`{"workers": "two", "model": 5, "id": 1.5}`))                // wrong types
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want submitSpec
		wantErr := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxSubmitBody)).Decode(&want)
		var got submitSpec
		gotErr := decodeSubmit(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), &got)
		if g, w := outcomeOf(got, gotErr), outcomeOf(want, wantErr); !reflect.DeepEqual(g, w) {
			t.Fatalf("body %.80q:\n got %+v (id %v)\nwant %+v (id %v)", body, g, g.spec.ID, w, w.spec.ID)
		}
	})
}
