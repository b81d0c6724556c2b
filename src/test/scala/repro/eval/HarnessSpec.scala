package repro.eval

import repro.SparkSpec

/** End-to-end integration: the full harness (train every method, evaluate
  * all tables) at tiny scale on one city. Catches Spark serialisation,
  * broadcast and aggregation issues before the bench-scale runs, and
  * asserts the paper's coarse quality ordering.
  */
class HarnessSpec extends SparkSpec {

  private lazy val ev: CityEval = Harness.evalCity(spark, "XA", Scale.tiny, s => info(s))

  test("harness produces all recovery methods in Table III order") {
    assert(ev.recovery.keys.toSeq == Seq("Linear", "DHTR", "TERI", "TrajGAT+Dec",
      "TrajCL+Dec", "ST2Vec+Dec", "MTrajRec", "MM-STGED", "RNTrajRec", "TRMMA"))
  }

  test("harness produces all map-matching methods in Table V order") {
    assert(ev.mapmatch.keys.toSeq == Seq("Nearest", "FMM", "LHMM", "RNTrajRec",
      "DeepMM", "GraphMM", "MMA"))
  }

  test("harness produces all ablation variants of Table IV") {
    assert(ev.ablation.keys.toSeq == Seq("TRMMA", "TRMMA-HMM", "TRMMA-Near",
      "MMA+linear", "Nearest+linear", "TRMMA-DF", "TRMMA-C", "TRMMA-DI"))
  }

  test("all metric values are sane fractions/distances") {
    (ev.recovery.values.map(_.metrics) ++ ev.mapmatch.values.map(_.metrics)).foreach { m =>
      m.foreach { case (k, v) =>
        assert(!v.isNaN, s"$k is NaN")
        if (k != "mae" && k != "rmse") assert(v >= 0 && v <= 1, s"$k = $v")
        else assert(v >= 0 && v < 5000, s"$k = $v")
      }
    }
    ev.ablation.values.foreach(v => assert(v >= 0 && v <= 1))
  }

  test("MMA is a top-tier matcher even at tiny training scale") {
    // The strict "MMA is best everywhere" claim is asserted at bench scale
    // (TableVBench); at this suite's tiny scale (88 training trajectories,
    // 6 epochs) MMA must already be within a few points of the best and far
    // above the Nearest tier.
    val f1 = ev.mapmatch.map { case (k, v) => k -> v.metrics("f1") }
    assert(f1("MMA") > f1.values.max - 0.08, s"$f1")
    assert(f1("MMA") > f1("Nearest") + 0.08, s"$f1")
  }

  test("TRMMA beats Nearest+linear and the free-space methods on accuracy (Table III/IV shape)") {
    val acc = ev.recovery.map { case (k, v) => k -> v.metrics("accuracy") }
    assert(acc("TRMMA") > ev.ablation("Nearest+linear"), s"$acc vs ${ev.ablation}")
    assert(acc("TRMMA") > acc("DHTR"), s"$acc")
    assert(acc("TRMMA") > acc("TERI"), s"$acc")
  }

  test("harness writes every Table III/IV/V metric to target/harness-XA-tiny.tsv") {
    // A bit-level record of the run: diff it between two commits to show a
    // refactor left every method's numbers unchanged. Timings are left out.
    def rows(table: String, scores: Iterable[(String, Map[String, Double])]): Iterable[String] =
      scores.flatMap { case (method, m) =>
        m.toSeq.sortBy(_._1).map { case (k, v) => f"$table\t$method\t$k\t$v%.10f" }
      }
    val lines = rows("III", ev.recovery.map { case (k, v) => k -> v.metrics }) ++
      rows("IV", ev.ablation.map { case (k, v) => k -> Map("accuracy" -> v) }) ++
      rows("V", ev.mapmatch.map { case (k, v) => k -> v.metrics })
    val out = java.nio.file.Paths.get("target", "harness-XA-tiny.tsv")
    java.nio.file.Files.createDirectories(out.getParent)
    java.nio.file.Files.write(out, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
    assert(lines.size == 10 * 6 + 8 + 7 * 4)
  }

  test("Table II stats mirror the configured dataset") {
    assert(ev.stats.name == "XA")
    assert(ev.stats.epsilonS == 12.0)
    assert(ev.stats.nTraj == Scale.tiny.nTraj)
    assert(ev.stats.avgPoints > 30 && ev.stats.avgPoints < 110)
    assert(ev.stats.segments > 100)
  }

  test("Spark metric aggregation matches DuckDB (oracle)") {
    import spark.implicits._
    val rows = Seq(
      RecoveryRow(1, 0.5, 0.6, 0.54, 0.4, 100.0, 140.0),
      RecoveryRow(2, 0.7, 0.8, 0.74, 0.6, 80.0, 90.0),
      RecoveryRow(3, 0.9, 1.0, 0.94, 0.8, 20.0, 25.0))
    val df = rows.toDF()
    val agg = df.selectExpr("avg(recall) as recall", "avg(precision) as precision",
      "avg(f1) as f1", "avg(accuracy) as accuracy", "avg(mae) as mae", "avg(rmse) as rmse")
    repro.Oracle.assertEquivalent(agg,
      "SELECT avg(CAST(recall AS DOUBLE)) AS recall, avg(CAST(precision AS DOUBLE)) AS precision, " +
        "avg(CAST(f1 AS DOUBLE)) AS f1, avg(CAST(accuracy AS DOUBLE)) AS accuracy, " +
        "avg(CAST(mae AS DOUBLE)) AS mae, avg(CAST(rmse AS DOUBLE)) AS rmse FROM rows",
      "rows" -> df)
  }
}
