package perfbench

/** Benchmark entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Progress and diagnostics go to stdout as plain lines; the last line is
  * the JSON result. With `--trace 0` it holds the end-to-end metrics, with
  * `--trace 1` the per-layer metrics of the traced run.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val wl = try Workload(opt("workload")) catch { case e: IllegalArgumentException => usage(e.getMessage) }
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case v => usage(s"--trace must be 0 or 1, got $v")
    }

    val out: String => Unit = s => println(s"[perfbench] $s")
    val rt = Runtime.getRuntime
    out("env " + Json.obj(Seq(
      "java" -> System.getProperty("java.version"),
      "vm" -> System.getProperty("java.vm.name"),
      "nproc" -> rt.availableProcessors(),
      "xmx_mb" -> rt.maxMemory() / (1024 * 1024),
      "gc" -> java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.toArray
        .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getName).mkString(","),
      "workload" -> wl.name, "city" -> wl.city, "seed" -> seed, "seconds" -> seconds,
      "trace" -> (if (trace) 1 else 0),
    )))

    val t0 = System.nanoTime()
    val (tally, consistent, metrics) =
      if (trace) Trace.run(wl, seed, seconds, out) else EndToEnd.run(wl, seed, seconds, out)
    tally.report().foreach(r => out(s"FAIL: $r"))
    out(f"attempted ${tally.attempted} failed ${tally.failed}; wall ${(System.nanoTime() - t0) / 1e9}%.1f s")
    println(Json.result(consistent && tally.failed == 0, tally.attempted, tally.failed, metrics))
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    System.err.println("usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }
}
