package repro.eval

import org.apache.spark.sql.SparkSession
import repro.geo.{RoadNetwork, ShortestPath}
import repro.mm.{MapMatcher, RnTrajRecMm}
import repro.recovery.{Recoverer, RouteRecoverer}
import repro.traj.{MatchedRoute, Recovered, Traj}
import scala.reflect.ClassTag
import scala.reflect.runtime.universe.TypeTag

/** One method's pass over a test set: its outputs in test-set order and
  * their aggregated metrics.
  */
final case class Pass[O](outputs: IndexedSeq[O], scores: MethodScores)

/** Distributed batched inference: the trained model (inside the method) and
  * the road network are broadcast once; trajectories are processed per
  * partition with a per-partition network-distance cache, and the
  * per-trajectory metric rows are aggregated with DataFrame SQL. Seconds per
  * 1000 trajectories are model time only, measured inside the partitions. A
  * method that works on another pass's outputs gets them next to each
  * trajectory, and its seconds include that pass's.
  */
object SparkInfer {

  /** `matcher` over `testSet`, scored on route metrics. */
  def mapMatch(spark: SparkSession, net: RoadNetwork, matcher: MapMatcher,
               testSet: IndexedSeq[Traj]): Pass[MatchedRoute] =
    infer(spark, net, matcher, testSet)(_.matchTraj(_))((_, _, t, mr) => Metrics.mapMatch(t, mr.route))

  /** `rec` over `testSet`, scored on recovery metrics. A [[RouteRecoverer]]
    * works along its matcher's pass, `matched(rec.matcher)`, and never calls
    * the matcher.
    */
  def recovery(spark: SparkSession, net: RoadNetwork, rec: Recoverer, testSet: IndexedSeq[Traj],
               matched: MapMatcher => Pass[MatchedRoute]): Pass[Recovered] = rec match {
    case r: RouteRecoverer =>
      val routes = matched(r.matcher)
      after(testSet, routes)(infer(spark, net, r, testSet.zip(routes.outputs))((r, in) => r.recover(in._1, in._2))(
        (n, c, in, out) => Metrics.recovery(n, in._1, out.points, c)))
    case _ => infer(spark, net, rec, testSet)(_.recover(_))((n, c, t, out) => Metrics.recovery(n, t, out.points, c))
  }

  /** RNTrajRec's routes (Table V) from its recovery pass `recovered`. */
  def mapMatch(spark: SparkSession, net: RoadNetwork, rn: RnTrajRecMm, testSet: IndexedSeq[Traj],
               recovered: Pass[Recovered]): Pass[MatchedRoute] =
    after(testSet, recovered)(infer(spark, net, rn, testSet.zip(recovered.outputs))((m, in) => m.route(in._1, in._2))(
      (_, _, in, mr) => Metrics.mapMatch(in._1, mr.route)))

  /** `p`, a pass over `prior`'s outputs on `testSet`, with `prior`'s seconds added. */
  private def after[O](testSet: IndexedSeq[Traj], prior: Pass[_])(p: => Pass[O]): Pass[O] = {
    require(prior.outputs.length == testSet.length, "a pass over another test set")
    val q = p
    q.copy(scores = q.scores.copy(secPer1000 = q.scores.secPer1000 + prior.scores.secPer1000))
  }

  /** Broadcast `method` and `net`, `run` the method on every input per
    * partition (timed), `score` each output, and return the outputs with
    * the aggregated scores and the mean seconds per 1000 inputs.
    */
  private def infer[M: ClassTag, I <: Product : TypeTag, O <: Product : TypeTag, R <: Product : TypeTag](
      spark: SparkSession, net: RoadNetwork, method: M, inputs: IndexedSeq[I])(run: (M, I) => O)(
      score: (RoadNetwork, ShortestPath.DistCache, I, O) => R): Pass[O] = {
    import spark.implicits._
    val bcNet = spark.sparkContext.broadcast(net)
    val bcM = spark.sparkContext.broadcast(method)
    val rows = spark.createDataset(inputs).mapPartitions { iter =>
      val localNet = bcNet.value
      val localM = bcM.value
      val cache = new ShortestPath.DistCache(localNet)
      iter.map { in =>
        val t0 = System.nanoTime()
        val out = run(localM, in)
        val dt = (System.nanoTime() - t0) / 1e9
        (out, score(localNet, cache, in, out), dt)
      }
    }.collect()
    Pass(rows.toIndexedSeq.map(_._1),
      MethodScores(Metrics.aggregate(rows.toSeq.map(_._2).toDF()), rows.map(_._3).sum / rows.length * 1000))
  }
}
