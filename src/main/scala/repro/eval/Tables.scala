package repro.eval

import java.nio.file.{Files, Paths, StandardOpenOption}
import org.apache.spark.sql.SparkSession

/** Renders the paper's tables from [[CityEval]] results and persists them
  * as TSV under bench/results/. Shared by the bench suites and the
  * spark-submit jobs.
  */
object Tables {

  val cities: Seq[String] = Seq("PT", "XA", "BJ", "CD")

  def evalAll(spark: SparkSession, scale: Scale, log: String => Unit): Map[String, CityEval] =
    cities.map(c => c -> Harness.evalCity(spark, c, scale, log)).toMap

  private def writeTsv(name: String, lines: Seq[String]): Unit = {
    // The bench subproject forks with cwd = bench/, the jobs with cwd =
    // repo root; anchor at the directory that holds build.sbt either way.
    val cwd = Paths.get(sys.props("user.dir")).toAbsolutePath
    val root = if (Files.exists(cwd.resolve("build.sbt"))) cwd else cwd.getParent
    val dir = root.resolve("bench").resolve("results")
    Files.createDirectories(dir)
    Files.write(dir.resolve(name), String.join("\n", lines: _*).getBytes,
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }

  /** Table II: dataset statistics. */
  def tableII(evs: Map[String, CityEval]): String = {
    val rows = Seq(
      "metric\t" + cities.mkString("\t"),
      "trajectories\t" + cities.map(c => evs(c).stats.nTraj).mkString("\t"),
      "epsilon sampling rate (s)\t" + cities.map(c => f"${evs(c).stats.epsilonS}%.0f").mkString("\t"),
      "avg # of points\t" + cities.map(c => f"${evs(c).stats.avgPoints}%.2f").mkString("\t"),
      "avg length (m)\t" + cities.map(c => f"${evs(c).stats.avgLengthM}%.1f").mkString("\t"),
      "avg travel time (s)\t" + cities.map(c => f"${evs(c).stats.avgTravelS}%.1f").mkString("\t"),
      "area (km^2)\t" + cities.map(c => f"${evs(c).stats.areaKm2}%.1f").mkString("\t"),
      "# of segments\t" + cities.map(c => evs(c).stats.segments).mkString("\t"),
      "# of intersections\t" + cities.map(c => evs(c).stats.intersections).mkString("\t"),
    )
    writeTsv("table2.tsv", rows)
    rows.mkString("\n")
  }

  /** One row per city and method: MAE and RMSE in metres, every other
    * metric in per cent, then the seconds per 1000 trajectories.
    */
  private def methodTable(file: String, metrics: Seq[String], evs: Map[String, CityEval],
                          scores: CityEval => Iterable[(String, MethodScores)]): String = {
    val header = "city\tmethod\t" + metrics.mkString("\t") + "\tsec_per_1000"
    val rows = for {
      c <- cities
      (m, sc) <- scores(evs(c)).toSeq
    } yield {
      val vals = metrics.map { k =>
        val v = sc.metrics(k)
        if (k == "mae" || k == "rmse") f"$v%.1f" else f"${v * 100}%.2f"
      }
      s"$c\t$m\t" + vals.mkString("\t") + f"\t${sc.secPer1000}%.2f"
    }
    writeTsv(file, header +: rows)
    (header +: rows).mkString("\n")
  }

  /** Table III: trajectory recovery effectiveness. */
  def tableIII(evs: Map[String, CityEval]): String =
    methodTable("table3.tsv", Seq("recall", "precision", "f1", "accuracy", "mae", "rmse"), evs, _.recovery)

  /** Table IV: TRMMA ablations (accuracy %). */
  def tableIV(evs: Map[String, CityEval]): String = {
    val variants = evs(cities.head).ablation.keys.toSeq
    val header = "variant\t" + cities.mkString("\t")
    val rows = variants.map { v =>
      s"$v\t" + cities.map(c => f"${evs(c).ablation(v) * 100}%.2f").mkString("\t")
    }
    writeTsv("table4.tsv", header +: rows)
    (header +: rows).mkString("\n")
  }

  /** Table V: map matching effectiveness. */
  def tableV(evs: Map[String, CityEval]): String =
    methodTable("table5.tsv", Seq("precision", "recall", "f1", "jaccard"), evs, _.mapmatch)
}
