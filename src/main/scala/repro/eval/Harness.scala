package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.geo.RoutePlanner
import repro.mm._
import repro.nn.Node2Vec
import repro.recovery._
import repro.traj.{Datasets, MatchedRoute, Recovered, TrajGen}
import scala.collection.immutable.ListMap

/** Experiment scale knobs. The bench defaults fit the full 4-city matrix in
  * tens of minutes on a 16-core box; `tiny` is used by integration tests.
  */
final case class Scale(
    nTraj: Int,
    epMma: Int,
    epTrmma: Int,
    epSeq: Int,
    epFree: Int,
    epDeep: Int,
    epGraph: Int,
)

object Scale {
  val bench: Scale = Scale(1200, epMma = 10, epTrmma = 26, epSeq = 10, epFree = 8, epDeep = 12, epGraph = 4)
  val tiny: Scale = Scale(220, epMma = 6, epTrmma = 12, epSeq = 4, epFree = 4, epDeep = 6, epGraph = 3)
}

/** Table II row. */
final case class CityStats(
    name: String,
    nTraj: Int,
    epsilonS: Double,
    avgPoints: Double,
    avgLengthM: Double,
    avgTravelS: Double,
    segments: Int,
    intersections: Int,
    areaKm2: Double,
)

final case class MethodScores(metrics: Map[String, Double], secPer1000: Double)

/** Full evaluation result of one city (feeds Tables II-V). */
final case class CityEval(
    stats: CityStats,
    recovery: ListMap[String, MethodScores],
    ablation: ListMap[String, Double],
    mapmatch: ListMap[String, MethodScores],
)

/** Trains every method on a city and evaluates all tables in one pass.
  * Results are cached per (city, scale) within the JVM so the per-table
  * bench suites share one training run.
  */
object Harness {

  private val cache = new java.util.concurrent.ConcurrentHashMap[String, CityEval]()

  def evalCity(spark: SparkSession, city: String, scale: Scale,
               log: String => Unit = Console.err.println): CityEval =
    cache.computeIfAbsent(s"$city-${scale.nTraj}", _ => run(spark, city, scale, log))

  private def run(spark: SparkSession, city: String, scale: Scale, log: String => Unit): CityEval = {
    val t0 = System.nanoTime()
    def elapsed(): String = f"${(System.nanoTime() - t0) / 1e9}%.0fs"
    val cd = Datasets(city)
    val net = cd.net
    val eps = cd.gen.epsilon

    log(s"[$city] generating ${scale.nTraj} trajectories (distributed) ...")
    val all = TrajGen.generate(spark, net, cd.gen, scale.nTraj.toLong, seed = city.hashCode.toLong)
      .collect().toIndexedSeq.sortBy(_.id)
    val Datasets.Split(trainSet, testSet) = Datasets.split(all)

    log(s"[$city] ${elapsed()} node2vec + planner ...")
    val n2v = Node2Vec.train(net, dim = 32, epochs = 2, walksPerSeg = 4)
    val planner = RoutePlanner.fit(net, trainSet.map(_.route.toSeq))

    // ---- train all models ----
    log(s"[$city] ${elapsed()} training MMA (+ ablation variants) ...")
    val mmaModel = MmaModel.init(net, MmaConfig(), n2v)
    MmaModel.train(mmaModel, trainSet, epochs = scale.epMma, log = log)
    val mmaCModel = MmaModel.init(net, MmaConfig(useContext = false), n2v)
    MmaModel.train(mmaCModel, trainSet, epochs = scale.epMma, log = _ => ())
    val mmaDIModel = MmaModel.init(net, MmaConfig(useDirectional = false), n2v)
    MmaModel.train(mmaDIModel, trainSet, epochs = scale.epMma, log = _ => ())

    log(s"[$city] ${elapsed()} training TRMMA (+ DF ablation) ...")
    val trmmaModel = TrmmaModel.init(net, TrmmaConfig(), n2v)
    TrmmaModel.train(trmmaModel, trainSet, epochs = scale.epTrmma, log = log)
    val trmmaDFModel = TrmmaModel.init(net, TrmmaConfig(useDualFormer = false), n2v)
    TrmmaModel.train(trmmaDFModel, trainSet, epochs = scale.epTrmma, log = _ => ())

    log(s"[$city] ${elapsed()} training seq2seq baselines ...")
    val seqKinds = Seq("mtrajrec", "rntrajrec", "mmstged", "trajgat", "trajcl", "st2vec")
    val seqModels = seqKinds.map { kind =>
      val m = SeqRecModel.init(net, SeqRecConfig(kind), eps, n2v)
      SeqRecModel.train(m, trainSet, epochs = scale.epSeq,
        log = s => if (s.contains("epoch 1 ") || s.contains(s"epoch ${scale.epSeq} ")) log(s"[$city] $s"))
      kind -> m
    }.toMap

    log(s"[$city] ${elapsed()} training free-space baselines ...")
    val dhtr = DhtrModel.init(net, eps)
    FreeSpaceModel.train(dhtr, trainSet, epochs = scale.epFree)
    val teri = TeriModel.init(net, eps)
    FreeSpaceModel.train(teri, trainSet, epochs = scale.epFree)

    log(s"[$city] ${elapsed()} training map-matching baselines ...")
    val deepMmModel = DeepMmModel.init(net)
    DeepMmModel.train(deepMmModel, trainSet, epochs = scale.epDeep)
    val graphMmModel = GraphMmModel.init(net, n2v)
    GraphMmModel.train(graphMmModel, trainSet, epochs = scale.epGraph)
    val lhmm = Lhmm.train(net, planner, trainSet)

    // ---- map matching: each matcher runs once over the test set ----
    val nearest = new Nearest(net, planner)
    val fmm = new HmmMatcher(net, planner)
    val mma = new Mma(mmaModel, planner)
    val mmaC = new Mma(mmaCModel, planner)
    val mmaDI = new Mma(mmaDIModel, planner)
    val deepMm = new DeepMm(deepMmModel, planner)
    val graphMm = new GraphMm(graphMmModel, planner)
    log(s"[$city] ${elapsed()} map-matching the test set ...")
    // Keyed by instance: the three MMA variants share the name "MMA".
    val matched: Map[MapMatcher, Pass[MatchedRoute]] = Seq(nearest, fmm, lhmm, deepMm, graphMm, mma, mmaC, mmaDI)
      .map(m => m -> SparkInfer.mapMatch(spark, net, m, testSet)).toMap
    def logged[O](name: String, p: Pass[O]): Pass[O] = {
      log(f"[$city]   $name%-14s ${p.scores.metrics.toSeq.sorted.map { case (k, v) => f"$k $v%.4f" }.mkString("  ")}" +
        f"  (${p.scores.secPer1000}%.2fs/1000)")
      p
    }
    def recover(r: Recoverer): Pass[Recovered] = logged(r.name, SparkInfer.recovery(spark, net, r, testSet, matched))

    // ---- recoverers (Table III order), on the matchers' passes ----
    log(s"[$city] ${elapsed()} evaluating recovery methods ...")
    val recoverers: Seq[Recoverer] = Seq(
      new LinearInterp(net, fmm, eps, "Linear"),
      new FreeSpaceRec(dhtr, "DHTR"),
      new FreeSpaceRec(teri, "TERI"),
      new SeqRec(seqModels("trajgat"), "TrajGAT+Dec"),
      new SeqRec(seqModels("trajcl"), "TrajCL+Dec"),
      new SeqRec(seqModels("st2vec"), "ST2Vec+Dec"),
      new SeqRec(seqModels("mtrajrec"), "MTrajRec"),
      new SeqRec(seqModels("mmstged"), "MM-STGED"),
      new SeqRec(seqModels("rntrajrec"), "RNTrajRec"),
      new Trmma(trmmaModel, mma, eps, "TRMMA"),
    )
    val recovered = ListMap(recoverers.map(r => r.name -> recover(r)): _*)
    val recScores = recovered.map { case (k, p) => k -> p.scores }

    // ---- ablations (Table IV: accuracy only) ----
    log(s"[$city] ${elapsed()} evaluating ablations ...")
    val ablators: Seq[Recoverer] = Seq(
      new Trmma(trmmaModel, fmm, eps, "TRMMA-HMM"),
      new Trmma(trmmaModel, nearest, eps, "TRMMA-Near"),
      new LinearInterp(net, mma, eps, "MMA+linear"),
      new LinearInterp(net, nearest, eps, "Nearest+linear"),
      new Trmma(trmmaDFModel, mma, eps, "TRMMA-DF"),
      new Trmma(trmmaModel, mmaC, eps, "TRMMA-C"),
      new Trmma(trmmaModel, mmaDI, eps, "TRMMA-DI"),
    )
    val ablScores = ListMap(("TRMMA" -> recScores("TRMMA").metrics("accuracy")) +:
      ablators.map(r => r.name -> recover(r).scores.metrics("accuracy")): _*)

    // ---- map matching (Table V order); RNTrajRec's route is read off its recovery ----
    val rnTrajRec = SparkInfer.mapMatch(spark, net, new RnTrajRecMm(planner, eps), testSet, recovered("RNTrajRec"))
    val mmScores = ListMap(Seq("Nearest" -> matched(nearest), "FMM" -> matched(fmm), "LHMM" -> matched(lhmm),
      "RNTrajRec" -> rnTrajRec, "DeepMM" -> matched(deepMm), "GraphMM" -> matched(graphMm), "MMA" -> matched(mma))
      .map { case (k, p) => k -> logged(k, p).scores }: _*)

    // ---- Table II stats ----
    val stats = {
      val avgPts = all.map(_.dense.length).sum.toDouble / all.length
      val lens = all.map { t =>
        val arc = new RouteArc(net, t.route)
        arc.totalLen - (1 - t.dense.head.r) * net.segments(t.dense.head.seg).lengthM
      }
      CityStats(city, all.length, eps, avgPts,
        lens.sum / lens.length,
        all.map(t => t.dense.last.t - t.dense.head.t).sum / all.length,
        net.numSegments, net.numNodes,
        (net.maxX - net.minX) / 1000.0 * (net.maxY - net.minY) / 1000.0)
    }

    log(s"[$city] ${elapsed()} done")
    CityEval(stats, recScores, ablScores, mmScores)
  }
}
