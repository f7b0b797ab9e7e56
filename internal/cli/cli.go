// Package cli is the one shape of the commands under cmd/: a tool is a
// function of its arguments and writers, and Exit maps what it returns
// to the process's exit status.
//
//	0  the run succeeded (or -h printed the flags)
//	1  the run failed; the error is printed as "TOOL: err"
//	2  the arguments cannot describe a run; the reason and the flags
//	   have been printed
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
)

// errUsage is a tool's answer to arguments that cannot describe a run; it
// has already said why and printed its flags.
var errUsage = errors.New("usage")

// Command is one invocation of a tool: its flag set, the arguments to
// parse, and where it writes.
type Command struct {
	*flag.FlagSet
	args           []string
	Stdout, Stderr io.Writer
}

// Run runs tool as the command name over args and returns its exit status.
func Run(name string, args []string, stdout, stderr io.Writer, tool func(*Command) error) int {
	c := New(name, args, stdout, stderr)
	return c.exit(tool(c))
}

// New returns the invocation of the tool name over args. Flag errors and
// the flag list go to stderr.
func New(name string, args []string, stdout, stderr io.Writer) *Command {
	c := &Command{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError), args: args, Stdout: stdout, Stderr: stderr}
	c.SetOutput(stderr)
	return c
}

// ParseArgs parses the flags the tool has declared. A flag error has been
// reported by the flag set and is a usage error; -h returns flag.ErrHelp.
func (c *Command) ParseArgs() error {
	err := c.Parse(c.args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// Usagef reports arguments that parsed but cannot describe a run: the
// reason, then the flags.
func (c *Command) Usagef(format string, args ...any) error {
	fmt.Fprintf(c.Stderr, c.Name()+": "+format+"\n", args...)
	c.Usage()
	return errUsage
}

// exit is the exit status of a run that returned err.
func (c *Command) exit(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name(), err)
		return 1
	}
}

// SplitList splits a comma-separated flag value, dropping blank elements.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// ReadSource reads the program a tool was given: the file its first
// positional argument names, or stdin when there is none. name is what
// error messages call the source.
func ReadSource(args []string, stdin io.Reader) (src, name string, err error) {
	if len(args) == 0 {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return "", "", fmt.Errorf("reading stdin: %w", err)
		}
		return string(data), "<stdin>", nil
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(data), args[0], nil
}

// Serve serves srv on addr until ctx is done, which returns nil, or until
// serving fails. bound is called with the address it listens on, so addr
// may ask for any free port. The caller shuts srv down.
func Serve(ctx context.Context, srv *http.Server, addr string, bound func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	bound(ln.Addr())
	select {
	case <-ctx.Done():
		return nil
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	}
}
