package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// httpTransport speaks the daemon's JSON-over-HTTP surface:
// POST /v1/acquire and POST /v1/release with query parameters,
// JSON bodies on success, and a {"code","error"} envelope on failure.
type httpTransport struct {
	base   string
	client *http.Client
}

// maxIdleHTTPConns bounds the idle connections a transport keeps to
// its daemon: the default transport's process-wide idle cap, all of it
// for the one host, so every concurrent agent sharing the Client
// finds its connection again instead of redialing.
const maxIdleHTTPConns = 100

func newHTTPTransport(base string) *httpTransport {
	// A private connection pool, so closing this transport cannot idle
	// out anyone else's connections.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxIdleHTTPConns
	return &httpTransport{
		base:   strings.TrimSuffix(base, "/"),
		client: &http.Client{Transport: tr},
	}
}

func (t *httpTransport) acquire(ctx context.Context, resource string, agent int, opts AcquireOptions) (Lease, error) {
	v := url.Values{}
	v.Set("resource", resource)
	v.Set("agent", strconv.Itoa(agent))
	if opts.Timeout != 0 {
		v.Set("timeout", opts.Timeout.String())
	}
	if opts.TTL != 0 {
		v.Set("ttl", opts.TTL.String())
	}
	resp, err := t.post(ctx, "/v1/acquire", v)
	if err != nil {
		return Lease{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Lease{}, decodeHTTPError(resp)
	}
	var lease Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		return Lease{}, fmt.Errorf("client: bad acquire response: %v", err)
	}
	return lease, nil
}

func (t *httpTransport) release(ctx context.Context, resource, token string) error {
	v := url.Values{}
	v.Set("resource", resource)
	v.Set("token", token)
	resp, err := t.post(ctx, "/v1/release", v)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeHTTPError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func (t *httpTransport) post(ctx context.Context, path string, v url.Values) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		t.base+path+"?"+v.Encode(), nil)
	if err != nil {
		return nil, fmt.Errorf("client: %v", err)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %v", err)
	}
	return resp, nil
}

// decodeHTTPError turns a non-200 response into an *Error, reading
// the daemon's {"code","error"} envelope when present and falling
// back to the body text (proxies and older daemons answer plain
// text).
func decodeHTTPError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	var envelope struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if err := json.Unmarshal(body, &envelope); err == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	return &Error{Code: resp.StatusCode, Msg: msg}
}

func (t *httpTransport) close() error {
	t.client.CloseIdleConnections()
	return nil
}
