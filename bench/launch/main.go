// Command launch runs one program and reports the resources it used.
//
// The harness cannot read a child's peak memory off its own wait4: on
// exec the kernel folds the high-water mark of the address space the
// child was forked from into the child's ru_maxrss, and the harness
// (calibration tables, HTTP client, result documents) is larger than
// cagcsim, so every child would report the harness's footprint. This
// process stays under 2 MiB, so the ru_maxrss it collects is the
// program's own. It imports nothing that would grow it.
//
// Usage: launch PROGRAM [ARG...], with file descriptor 3 open for
// writing. The program inherits stdin, stdout and stderr; "CPU_NS
// MAXRSS_KB\n" goes to descriptor 3; the exit code is the program's.
package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
)

func main() {
	if len(os.Args) < 2 {
		os.Stderr.WriteString("usage: launch PROGRAM [ARG...]\n")
		os.Exit(2)
	}
	// Pdeathsig follows the thread that forked, so keep it for good.
	runtime.LockOSThread()
	p, err := os.StartProcess(os.Args[1], os.Args[1:], &os.ProcAttr{
		Files: []*os.File{os.Stdin, os.Stdout, os.Stderr},
		// The harness kills this process on a timeout; the program must
		// not outlive it.
		Sys: &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL},
	})
	if err != nil {
		os.Stderr.WriteString("launch: " + err.Error() + "\n")
		os.Exit(127)
	}
	st, err := p.Wait()
	if err != nil {
		os.Stderr.WriteString("launch: " + err.Error() + "\n")
		os.Exit(127)
	}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		line := strconv.FormatInt(ru.Utime.Nano()+ru.Stime.Nano(), 10) + " " + strconv.FormatInt(int64(ru.Maxrss), 10) + "\n"
		if _, err := os.NewFile(3, "usage").WriteString(line); err != nil {
			os.Stderr.WriteString("launch: " + err.Error() + "\n")
			os.Exit(127)
		}
	}
	if code := st.ExitCode(); code >= 0 {
		os.Exit(code)
	}
	os.Stderr.WriteString("launch: " + st.String() + "\n")
	os.Exit(1)
}
