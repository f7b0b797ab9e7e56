package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Every result maps to one exit status, and only a failed run prints its
// error; a usage error has printed its reason and the flags already.
func TestRunMapsResultToExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		tool   func(c *Command) error
		code   int
		stderr []string
	}{
		{"success", nil, func(c *Command) error { return c.ParseArgs() }, 0, nil},
		{"-h", []string{"-h"}, func(c *Command) error { return c.ParseArgs() }, 0, []string{"Usage of tool", "-n"}},
		{"flag error", []string{"-nope"}, func(c *Command) error { return c.ParseArgs() }, 2,
			[]string{"flag provided but not defined: -nope", "Usage of tool", "-n"}},
		{"usagef", []string{"-n", "-1"}, func(c *Command) error {
			if err := c.ParseArgs(); err != nil {
				return err
			}
			return c.Usagef("-n %d: want a positive count", -1)
		}, 2, []string{"tool: -n -1: want a positive count", "Usage of tool"}},
		{"failed run", nil, func(c *Command) error { return errors.New("no such trace") }, 1, []string{"tool: no such trace\n"}},
		{"bare ErrHelp", nil, func(c *Command) error { return flag.ErrHelp }, 0, nil},
	} {
		var stdout, stderr bytes.Buffer
		code := Run("tool", tc.args, &stdout, &stderr, func(c *Command) error {
			c.Int("n", 1, "a count")
			return tc.tool(c)
		})
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		for _, want := range tc.stderr {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%s: stderr %q lacks %q", tc.name, stderr.String(), want)
			}
		}
		if len(tc.stderr) == 0 && stderr.Len() != 0 {
			t.Errorf("%s: stderr %q, want nothing", tc.name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: stdout %q, want nothing", tc.name, stdout.String())
		}
	}
}

func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":              nil,
		" , ,":          nil,
		"VA":            {"VA"},
		" VA, MM ,,CFD": {"VA", "MM", "CFD"},
	} {
		if got := SplitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitList(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReadSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.cu")
	if err := os.WriteFile(path, []byte("__global__ void k() { }"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, name, err := ReadSource([]string{path}, strings.NewReader("not read"))
	if err != nil || name != path || src != "__global__ void k() { }" {
		t.Errorf("file: %q %q %v", src, name, err)
	}
	src, name, err = ReadSource(nil, strings.NewReader("from stdin"))
	if err != nil || name != "<stdin>" || src != "from stdin" {
		t.Errorf("stdin: %q %q %v", src, name, err)
	}
	if _, _, err := ReadSource([]string{filepath.Join(t.TempDir(), "absent.cu")}, nil); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("absent file: %v", err)
	}
}

// Serve reports the address it bound, so port 0 is usable, serves until
// its context is done and then returns nil; a listen that fails is its
// error.
func TestServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })}
	bound := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, srv, "127.0.0.1:0", func(a net.Addr) { bound <- a }) }()
	addr := <-bound
	resp, err := http.Get("http://" + addr.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET: %s", resp.Status)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve after cancel: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The port is still held by a listener of our own.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = Serve(context.Background(), &http.Server{}, ln.Addr().String(), func(net.Addr) { t.Error("bound a taken port") })
	if err == nil {
		t.Fatal("Serve on a taken port returned nil")
	}
}
